// Package nameserver implements the trusted name server (NS) of the
// FORTRESS architecture (§3): a read-only directory through which clients
// learn proxies' addresses and public keys, servers' indices and public keys
// (but NOT server addresses — hiding servers is the point), the replication
// type of the server tier and its fault-tolerance degree.
//
// Writes happen only at trusted system-administration time (setup and
// re-randomization epochs); clients get immutable snapshots.
package nameserver

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ReplicationType describes how the server tier is replicated.
type ReplicationType int

const (
	// ReplicationNone is an unreplicated server.
	ReplicationNone ReplicationType = iota + 1
	// ReplicationPrimaryBackup is classical primary-backup.
	ReplicationPrimaryBackup
	// ReplicationSMR is state machine replication.
	ReplicationSMR
)

// String implements fmt.Stringer.
func (r ReplicationType) String() string {
	switch r {
	case ReplicationNone:
		return "none"
	case ReplicationPrimaryBackup:
		return "primary-backup"
	case ReplicationSMR:
		return "smr"
	default:
		return fmt.Sprintf("ReplicationType(%d)", int(r))
	}
}

// ErrNotFound is returned for lookups of unregistered entries.
var ErrNotFound = errors.New("nameserver: not found")

// ProxyRecord is the client-visible description of one proxy.
type ProxyRecord struct {
	ID        string
	Addr      string
	PublicKey ed25519.PublicKey
}

// ServerRecord is the client-visible description of one server: index and
// key only. Addresses are deliberately absent.
type ServerRecord struct {
	Index     int
	PublicKey ed25519.PublicKey
}

// NameServer is the trusted directory. It is safe for concurrent use.
type NameServer struct {
	mu          sync.RWMutex
	proxies     map[string]ProxyRecord
	servers     map[int]ServerRecord
	serverAddrs map[int]string // visible to proxies only, never to clients
	replication ReplicationType
	faultDegree int
}

// New creates a name server describing a server tier with the given
// replication type and fault-tolerance degree (meaningful for SMR).
func New(replication ReplicationType, faultDegree int) (*NameServer, error) {
	if faultDegree < 0 {
		return nil, fmt.Errorf("nameserver: negative fault degree %d", faultDegree)
	}
	return &NameServer{
		proxies:     make(map[string]ProxyRecord),
		servers:     make(map[int]ServerRecord),
		serverAddrs: make(map[int]string),
		replication: replication,
		faultDegree: faultDegree,
	}, nil
}

// RegisterProxy records a proxy. Administrative operation.
func (ns *NameServer) RegisterProxy(id, addr string, pub ed25519.PublicKey) error {
	if id == "" || addr == "" {
		return errors.New("nameserver: proxy id and addr required")
	}
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("nameserver: bad proxy public key length %d", len(pub))
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.proxies[id] = ProxyRecord{ID: id, Addr: addr, PublicKey: pub}
	return nil
}

// RegisterServer records a server's index, public key and (proxy-visible)
// address. Administrative operation.
func (ns *NameServer) RegisterServer(index int, addr string, pub ed25519.PublicKey) error {
	if index < 0 {
		return fmt.Errorf("nameserver: negative server index %d", index)
	}
	if addr == "" {
		return errors.New("nameserver: server addr required")
	}
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("nameserver: bad server public key length %d", len(pub))
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.servers[index] = ServerRecord{Index: index, PublicKey: pub}
	ns.serverAddrs[index] = addr
	return nil
}

// ClientView is the immutable snapshot a client may read: everything except
// server addresses.
type ClientView struct {
	Proxies     []ProxyRecord
	Servers     []ServerRecord
	Replication ReplicationType
	FaultDegree int
}

// ClientSnapshot returns the read-only view for clients, with deterministic
// ordering.
func (ns *NameServer) ClientSnapshot() ClientView {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	view := ClientView{
		Replication: ns.replication,
		FaultDegree: ns.faultDegree,
		Proxies:     make([]ProxyRecord, 0, len(ns.proxies)),
		Servers:     make([]ServerRecord, 0, len(ns.servers)),
	}
	for _, p := range ns.proxies {
		view.Proxies = append(view.Proxies, p)
	}
	sort.Slice(view.Proxies, func(i, j int) bool { return view.Proxies[i].ID < view.Proxies[j].ID })
	for _, s := range ns.servers {
		view.Servers = append(view.Servers, s)
	}
	sort.Slice(view.Servers, func(i, j int) bool { return view.Servers[i].Index < view.Servers[j].Index })
	return view
}

// ServerAddr resolves a server index to its address. Only proxies (and the
// administrator) call this; it is not part of the client view.
func (ns *NameServer) ServerAddr(index int) (string, error) {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	addr, ok := ns.serverAddrs[index]
	if !ok {
		return "", fmt.Errorf("server %d: %w", index, ErrNotFound)
	}
	return addr, nil
}

// ServerKey resolves a server index to its verification key.
func (ns *NameServer) ServerKey(index int) (ed25519.PublicKey, error) {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	s, ok := ns.servers[index]
	if !ok {
		return nil, fmt.Errorf("server %d: %w", index, ErrNotFound)
	}
	return s.PublicKey, nil
}

// ServerIndices returns all registered server indices in ascending order.
func (ns *NameServer) ServerIndices() []int {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	out := make([]int, 0, len(ns.servers))
	for i := range ns.servers {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// ProxyRecordByID resolves one proxy.
func (ns *NameServer) ProxyRecordByID(id string) (ProxyRecord, error) {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	p, ok := ns.proxies[id]
	if !ok {
		return ProxyRecord{}, fmt.Errorf("proxy %q: %w", id, ErrNotFound)
	}
	return p, nil
}
