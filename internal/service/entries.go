package service

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"sync"
)

// entries is the sorted-entry snapshot editor KV and Bank share. The state
// is a map, and its snapshot is the map's entries sorted by key, each
// encoded by enc, joined by commas inside one pair of brackets:
//
//	open + enc(k0, v0) + "," + enc(k1, v1) + ... + close
//
// enc renders an entry exactly as encoding/json renders it inside the whole
// state, so the snapshot is byte-identical to json.Marshal of that state.
// The editor works in both directions of a primary-backup stream:
//
//   - Apply: each mutation splices the entries it touched into snap and
//     records the edit for LastDelta (splice).
//   - Install: a backup adopts the primary's spliced snapshot and re-parses
//     only the whole entries the edit overlaps, re-encoding them to check
//     they are canonical (install). An edit it cannot place that way falls
//     back to a full re-parse, as Restore does.
//
// The editor also carries the owning service's lock, and its exported
// methods are that service's snapshot surface (Snapshot, Restore,
// LastDelta, InstallDelta); the unexported ones assume the lock is held.
type entries[V any] struct {
	mu          sync.Mutex
	name        string // service name, for errors
	open, close byte
	enc         func(k string, v V) []byte
	parse       func(doc []byte) (map[string]V, error) // whole bracketed document

	data map[string]V
	snap []byte
	keys []string // sorted
	encs [][]byte // encs[i] encodes keys[i]; never modified in place
	last SnapshotDelta
	// fallbacks counts installs that re-parsed the whole snapshot because
	// the edit did not map onto canonical whole entries.
	fallbacks int
}

func newEntries[V any](name, empty string, enc func(string, V) []byte, parse func([]byte) (map[string]V, error)) entries[V] {
	return entries[V]{
		name: name, open: empty[0], close: empty[1], enc: enc, parse: parse,
		data: make(map[string]V), snap: []byte(empty),
	}
}

// Snapshot implements Service: the maintained canonical encoding, which
// must not be modified.
func (e *entries[V]) Snapshot() ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snap, nil
}

// Restore implements Service.
func (e *entries[V]) Restore(snapshot []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.restore(snapshot)
}

// LastDelta implements DeltaCapable.
func (e *entries[V]) LastDelta() (SnapshotDelta, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.last, true
}

// InstallDelta implements DeltaCapable.
func (e *entries[V]) InstallDelta(next []byte, d SnapshotDelta) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.install(next, d)
}

// offset returns the byte offset of entry i in snap: the opening bracket,
// then each earlier entry and its separating comma.
func (e *entries[V]) offset(i int) int {
	off := 1
	for _, enc := range e.encs[:i] {
		off += len(enc) + 1
	}
	return off
}

// join appends encs to dst, comma-separated.
func join(dst []byte, encs [][]byte) []byte {
	for i, enc := range encs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, enc...)
	}
	return dst
}

// splice replaces entries [lo, hi) with keys/encs, which must sort between
// the neighbouring entries, and records the edit as the smallest splice
// that keeps the separators right: an in-place replacement covers just the
// entries, an insertion carries one comma, a removal eats one.
func (e *entries[V]) splice(lo, hi int, keys []string, encs [][]byte) {
	n, size := len(e.keys), len(e.snap)
	var prefix, suffix int
	var patch []byte
	if len(encs) == 1 {
		patch = encs[0]
	} else {
		patch = join(nil, encs)
	}
	switch {
	case len(encs) == 0 && hi-lo == n: // everything out: back to empty brackets
		prefix, suffix = 1, 1
	case len(encs) == 0 && lo == 0: // leading entries and the comma after them
		prefix, suffix = 1, size-e.offset(hi)
	case len(encs) == 0: // the comma before the entries, and the entries
		prefix, suffix = e.offset(lo)-1, size-e.offset(hi)+1
	case hi > lo: // in place
		prefix, suffix = e.offset(lo), size-e.offset(hi)+1
	case n == 0: // first entry: between the brackets
		prefix, suffix = 1, 1
	case lo == n: // append: before the closing bracket
		prefix, suffix = size-1, 1
		patch = append([]byte{','}, patch...)
	default: // insert before entry lo
		prefix = e.offset(lo)
		suffix = size - prefix
		patch = append(patch[:len(patch):len(patch)], ',')
	}
	e.last = SnapshotDelta{PrefixLen: prefix, Patch: patch, SuffixLen: suffix}
	e.snap = spliceBytes(e.snap, prefix, patch, suffix)
	e.keys = slices.Replace(e.keys, lo, hi, keys...)
	e.encs = slices.Replace(e.encs, lo, hi, encs...)
}

// put sets k to v and splices its entry in place or at its sorted position.
func (e *entries[V]) put(k string, v V) {
	e.data[k] = v
	i, found := slices.BinarySearch(e.keys, k)
	hi := i
	if found {
		hi++
	}
	e.splice(i, hi, []string{k}, [][]byte{e.enc(k, v)})
}

// del removes k, reporting whether it existed.
func (e *entries[V]) del(k string) bool {
	i, found := slices.BinarySearch(e.keys, k)
	if !found {
		return false
	}
	delete(e.data, k)
	e.splice(i, i+1, nil, nil)
	return true
}

// putPair sets two existing, distinct keys as one contiguous splice from
// the lower entry to the higher, re-encoding only those two.
func (e *entries[V]) putPair(k1 string, v1 V, k2 string, v2 V) {
	e.data[k1], e.data[k2] = v1, v2
	i, _ := slices.BinarySearch(e.keys, k1)
	j, _ := slices.BinarySearch(e.keys, k2)
	lo, hi := min(i, j), max(i, j)+1
	keys := slices.Clone(e.keys[lo:hi])
	encs := slices.Clone(e.encs[lo:hi])
	encs[0] = e.enc(keys[0], e.data[keys[0]])
	encs[len(encs)-1] = e.enc(keys[len(keys)-1], e.data[keys[len(keys)-1]])
	e.splice(lo, hi, keys, encs)
}

// restore replaces the state with a parsed snapshot in any valid encoding
// and rebuilds the canonical one by joining the entry encodings.
func (e *entries[V]) restore(snapshot []byte) error {
	data, err := e.parse(snapshot)
	if err != nil {
		return fmt.Errorf("service: restore %s: %w", e.name, err)
	}
	keys := slices.Sorted(maps.Keys(data))
	encs := make([][]byte, len(keys))
	size := 1 + len(keys)
	for i, k := range keys {
		encs[i] = e.enc(k, data[k])
		size += len(encs[i])
	}
	snap := append(join(append(make([]byte, 0, size), e.open), encs), e.close)
	e.data, e.snap, e.keys, e.encs = data, snap, keys, encs
	e.last = SnapshotDelta{Unchanged: true}
	return nil
}

// install adopts next = splice(snap, d) as the snapshot. The edited bytes
// are widened to the whole entries they overlap, and only those entries of
// next are parsed; the rest of the state is untouched. When the edit
// touches a bracket or the re-parsed run is not canonical (sorted, no
// duplicate, re-encoding to the same bytes) it re-parses all of next
// instead, which is slower but never wrong.
func (e *entries[V]) install(next []byte, d SnapshotDelta) error {
	p, s, cur := d.PrefixLen, d.SuffixLen, e.snap
	if d.Unchanged || len(d.Patch) == 0 && p+s == len(cur) {
		e.last = SnapshotDelta{Unchanged: true}
		return nil
	}
	if p < 1 || s < 1 || p+s > len(cur) || len(next) != p+len(d.Patch)+s || !e.installRun(next, p, len(cur)-s) {
		e.fallbacks++
		return e.restore(next)
	}
	e.last = SnapshotDelta{Unchanged: true}
	return nil
}

// installRun installs the edit of cur[p:end] by re-parsing the whole
// entries around it; false leaves the state untouched.
func (e *entries[V]) installRun(next []byte, p, end int) bool {
	// Entries [lo, hi) of snap, spanning snap[a:b], hold the edited bytes;
	// an empty state gives the empty run between the brackets.
	lo, hi, a, b := 0, len(e.encs), 1, len(e.snap)-1
	off := 1
	for i, enc := range e.encs {
		if off <= p {
			lo, a = i, off
		}
		if off+len(enc) >= end {
			hi, b = i+1, off+len(enc)
			break
		}
		off += len(enc) + 1
	}
	run := next[a : b+len(next)-len(e.snap)]
	doc := append(append(append(make([]byte, 0, len(run)+2), e.open), run...), e.close)
	data, err := e.parse(doc)
	if err != nil {
		return false
	}
	keys := slices.Sorted(maps.Keys(data))
	if len(keys) == 0 && (lo > 0 || hi < len(e.keys)) {
		return false // an empty run between entries leaves a stray comma
	}
	if len(keys) > 0 && (lo > 0 && e.keys[lo-1] >= keys[0] || hi < len(e.keys) && keys[len(keys)-1] >= e.keys[hi]) {
		return false
	}
	encs := make([][]byte, len(keys))
	for i, k := range keys {
		encs[i] = e.enc(k, data[k])
	}
	if !bytes.Equal(join(nil, encs), run) {
		return false
	}
	for _, k := range e.keys[lo:hi] {
		delete(e.data, k)
	}
	maps.Copy(e.data, data)
	e.keys = slices.Replace(e.keys, lo, hi, keys...)
	e.encs = slices.Replace(e.encs, lo, hi, encs...)
	e.snap = next
	return true
}
