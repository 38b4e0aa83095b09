package pb

import "hash/crc32"

// Snapshot deltas: the incremental-update encoding the primary ships in
// place of a full state snapshot. A delta is the minimal contiguous edit
// turning the previous snapshot into the next one — the bytes outside the
// longest common prefix and suffix of the two encodings. Every service in
// the repo snapshots canonically (sorted keys, canonical JSON), so a
// request that touches one key perturbs one contiguous region and the
// delta scales with the state actually touched, not with total state size.
// Correctness never depends on that locality: a delta that would not
// reproduce the primary's bytes exactly is rejected by the base hash and
// the backup falls back to a full checkpoint.
//
// Installing a delta costs the edit too, not the state: a backup hands the
// spliced snapshot and the edit to service.InstallDelta, which a
// DeltaCapable service (KV, Bank, Counter, and every server's exploit
// guard) implements by re-parsing only the entries the edit touched. A
// service without that surface, or an edit it cannot place on whole
// entries, is restored from the whole spliced snapshot instead.

// DiffSnapshot computes the delta from old to new: new equals
// old[:prefix] + patch + old[len(old)-suffix:]. Exported for the fan-out
// benchmark, which compares delta-sized against full-snapshot-sized update
// payloads.
func DiffSnapshot(old, new []byte) (prefix int, patch []byte, suffix int) {
	limit := min(len(old), len(new))
	for prefix < limit && old[prefix] == new[prefix] {
		prefix++
	}
	for suffix < limit-prefix && old[len(old)-1-suffix] == new[len(new)-1-suffix] {
		suffix++
	}
	return prefix, new[prefix : len(new)-suffix], suffix
}

// ApplyDelta reconstructs the new snapshot from the old one and a delta
// produced by DiffSnapshot. It reports false when the delta cannot apply to
// old (trim lengths out of range), which a backup treats as a chain break.
// The identity edit (an unchanged snapshot) returns old itself: snapshots
// are immutable, so sharing it is safe and skips a whole-state copy.
func ApplyDelta(old []byte, prefix int, patch []byte, suffix int) ([]byte, bool) {
	if prefix < 0 || suffix < 0 || prefix+suffix > len(old) {
		return nil, false
	}
	if len(patch) == 0 && prefix+suffix == len(old) {
		return old, true
	}
	out := make([]byte, 0, prefix+len(patch)+suffix)
	out = append(out, old[:prefix]...)
	out = append(out, patch...)
	out = append(out, old[len(old)-suffix:]...)
	return out, true
}

// castagnoli is the CRC-32C table; the store's WAL frames use the same.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// snapHash fingerprints a snapshot encoding with CRC-32C, which is hardware
// accelerated: 47 µs per MiB on a 2-core Xeon, against 1.36 ms for the
// byte-at-a-time FNV-1a it replaced.
// Deltas carry the hash of the base they chain from; a backup whose
// service's snapshot hashes differently has silently diverged (missed
// update, state changed behind the stream) and must resync via checkpoint
// rather than install the delta on the wrong base. That check is also what
// service.InstallDelta relies on: the spliced snapshot it is handed
// extends the service's own. The hash detects accidents, not adversaries
// — the primary is trusted to send its own state — so 32 bits suffice.
func snapHash(snap []byte) uint32 {
	return crc32.Checksum(snap, castagnoli)
}
