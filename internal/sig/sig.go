// Package sig implements the message authentication FORTRESS prescribes
// (§3): servers sign responses together with their index, proxies over-sign
// one authentic server response, and clients accept a response only if it
// carries two authentic signatures — one from a proxy they know and one from
// a server index they know.
//
// Ed25519 (crypto/ed25519, stdlib) provides the signatures.
//
// # Acceptance rules and the per-request budget
//
// The rules say how much authentication a request needs, and the callers
// spend exactly that: a verifier checks replies in arrival order and stops at
// the first that satisfies its rule, and a signer signs a given message once.
//
//   - A server signs (request id, index, body). Every proxy asks it for the
//     same reply, and retries, parked connections and lease reads ask again;
//     KeyPair.Sign memoises by the exact signing bytes, so those cost one
//     Ed25519 signature between them.
//   - A proxy needs one authentic server reply to over-sign (VerifyAnswer:
//     signed by the server it dialled, under that index, for the id it
//     forwarded): one verify when the first to arrive is authentic, one more
//     per forged reply before it.
//   - A client needs one reply carrying two authentic signatures: two
//     verifies when the first to arrive passes.
//
// With s servers and p proxies a fault-free request therefore costs s + p
// signatures and p + 2 verifies (6 and 5 on 3/3, down from 12 and 15 when
// every reply was signed per asker and verified whether used or not). Signs
// and Verifies count the operations actually performed, process-wide, so a
// test can hold the callers to that budget.
package sig

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

var (
	// ErrBadSignature is returned when signature verification fails.
	ErrBadSignature = errors.New("sig: bad signature")
	// ErrUnknownSigner is returned when the signer is not in the verifier's
	// trusted set.
	ErrUnknownSigner = errors.New("sig: unknown signer")
)

// signs and verifies count the Ed25519 operations this process performed:
// a memoised Sign is not one.
var signs, verifies atomic.Uint64

// Signs returns how many Ed25519 signatures the process has computed.
func Signs() uint64 { return signs.Load() }

// Verifies returns how many Ed25519 verifications the process has run.
func Verifies() uint64 { return verifies.Load() }

// memoSlots is the size of a key pair's signature memo. A reply is asked for
// again within a few requests (by the other proxies, by a retry), so the
// table only has to outlast the requests in flight; a slot holds one message
// and its signature, a few hundred bytes for the replies signed here.
const memoSlots = 256

// memoEntry is one remembered signature. The signature is an array, not a
// slice, so nothing handed to a caller can share memory with the table. The
// slot's lock is held while its message is signed, so goroutines asking for
// one message at the same instant get one signature between them, and
// different messages are signed in parallel.
type memoEntry struct {
	mu   sync.Mutex
	used bool
	msg  string
	sig  [ed25519.SignatureSize]byte
}

// KeyPair is an Ed25519 signing identity.
type KeyPair struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey

	// memo is direct-mapped: a message lives in the slot its hash names and
	// displaces whatever was there, so the table never grows.
	seed maphash.Seed
	memo [memoSlots]memoEntry
}

// NewKeyPair generates a fresh identity.
func NewKeyPair() (*KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("sig: generate key: %w", err)
	}
	return &KeyPair{pub: pub, priv: priv, seed: maphash.MakeSeed()}, nil
}

// Public returns the verification key.
func (k *KeyPair) Public() ed25519.PublicKey { return k.pub }

// Sign returns the signature over msg. Ed25519 is deterministic, so a
// signature already computed for exactly these bytes is returned from the
// memo, as a fresh slice the caller owns.
func (k *KeyPair) Sign(msg []byte) []byte {
	e := &k.memo[maphash.Bytes(k.seed, msg)%memoSlots]
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.used || e.msg != string(msg) {
		signs.Add(1)
		copy(e.sig[:], ed25519.Sign(k.priv, msg))
		e.used, e.msg = true, string(msg)
	}
	return append([]byte(nil), e.sig[:]...)
}

// Verify checks sig over msg against pub.
func Verify(pub ed25519.PublicKey, msg, signature []byte) error {
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("sig: bad public key length %d", len(pub))
	}
	verifies.Add(1)
	if !ed25519.Verify(pub, msg, signature) {
		return ErrBadSignature
	}
	return nil
}

// ServerResponse is a server's signed reply: the response body bound to the
// server's index (the paper: "Each server signs the response together with
// its index").
type ServerResponse struct {
	RequestID   string `json:"requestId"`
	Body        []byte `json:"body"`
	ServerIndex int    `json:"serverIndex"`
	Signature   []byte `json:"signature"`
}

// serverSigningBytes is the canonical byte string a server signs.
func serverSigningBytes(requestID string, body []byte, index int) []byte {
	var buf bytes.Buffer
	buf.WriteString("server-response\x00")
	buf.WriteString(requestID)
	buf.WriteByte(0)
	fmt.Fprintf(&buf, "%d", index)
	buf.WriteByte(0)
	buf.Write(body)
	return buf.Bytes()
}

// SignServerResponse builds a server-signed response.
func SignServerResponse(k *KeyPair, requestID string, body []byte, serverIndex int) ServerResponse {
	return ServerResponse{
		RequestID:   requestID,
		Body:        append([]byte(nil), body...),
		ServerIndex: serverIndex,
		Signature:   k.Sign(serverSigningBytes(requestID, body, serverIndex)),
	}
}

// VerifyServerResponse checks the server signature against pub.
func VerifyServerResponse(pub ed25519.PublicKey, r ServerResponse) error {
	return Verify(pub, serverSigningBytes(r.RequestID, r.Body, r.ServerIndex), r.Signature)
}

// VerifyAnswer checks that r is what the server holding pub, at the given
// index, signed in answer to requestID. A requester compares the signed id
// and index with what it asked of whom, because the envelope a response
// travels in is not signed: an authentic response to an earlier request, or
// one labelled with another server's index, is not an answer.
func VerifyAnswer(pub ed25519.PublicKey, r ServerResponse, requestID string, index int) error {
	if r.RequestID != requestID {
		return fmt.Errorf("sig: response signed for request %q, not %q", r.RequestID, requestID)
	}
	if r.ServerIndex != index {
		return fmt.Errorf("sig: server %d signed as %d", index, r.ServerIndex)
	}
	return VerifyServerResponse(pub, r)
}

// DoublySigned is a proxy's over-signed forwarding of one authentic server
// response. Clients require both signatures to verify.
type DoublySigned struct {
	Response  ServerResponse `json:"response"`
	ProxyID   string         `json:"proxyId"`
	Signature []byte         `json:"signature"`
}

// proxySigningBytes is the canonical byte string a proxy signs: the entire
// server response (including the server's signature), bound to the proxy ID,
// so a tampered inner response invalidates the outer signature too.
func proxySigningBytes(r ServerResponse, proxyID string) ([]byte, error) {
	inner, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("sig: marshal inner response: %w", err)
	}
	var buf bytes.Buffer
	buf.WriteString("proxy-oversign\x00")
	buf.WriteString(proxyID)
	buf.WriteByte(0)
	buf.Write(inner)
	return buf.Bytes(), nil
}

// OverSign wraps a server response in a proxy signature.
func OverSign(k *KeyPair, proxyID string, r ServerResponse) (DoublySigned, error) {
	msg, err := proxySigningBytes(r, proxyID)
	if err != nil {
		return DoublySigned{}, err
	}
	return DoublySigned{Response: r, ProxyID: proxyID, Signature: k.Sign(msg)}, nil
}

// VerifierSet is what a FORTRESS client learns from the trusted name server:
// proxy public keys by proxy ID, and server public keys by index.
type VerifierSet struct {
	Proxies map[string]ed25519.PublicKey
	Servers map[int]ed25519.PublicKey
}

// NewVerifierSet returns an empty verifier set.
func NewVerifierSet() *VerifierSet {
	return &VerifierSet{
		Proxies: make(map[string]ed25519.PublicKey),
		Servers: make(map[int]ed25519.PublicKey),
	}
}

// VerifyDoublySigned performs the client-side acceptance check of §3: the
// outer signature must verify under a known proxy key and the inner one
// under the known key for the claimed server index.
func (v *VerifierSet) VerifyDoublySigned(d DoublySigned) error {
	proxyPub, ok := v.Proxies[d.ProxyID]
	if !ok {
		return fmt.Errorf("proxy %q: %w", d.ProxyID, ErrUnknownSigner)
	}
	msg, err := proxySigningBytes(d.Response, d.ProxyID)
	if err != nil {
		return err
	}
	if err := Verify(proxyPub, msg, d.Signature); err != nil {
		return fmt.Errorf("proxy %q over-signature: %w", d.ProxyID, err)
	}
	serverPub, ok := v.Servers[d.Response.ServerIndex]
	if !ok {
		return fmt.Errorf("server index %d: %w", d.Response.ServerIndex, ErrUnknownSigner)
	}
	if err := VerifyServerResponse(serverPub, d.Response); err != nil {
		return fmt.Errorf("server %d signature: %w", d.Response.ServerIndex, err)
	}
	return nil
}
