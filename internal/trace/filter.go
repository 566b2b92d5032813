package trace

import (
	"encoding/binary"
	"hash/crc32"
)

// FilterStats accounts for one FilterAccesses pass.
type FilterStats struct {
	OriginalEvents int64 // events in the input stream
	KeptEvents     int64 // events in the output stream
	ElidedEvents   int64 // access events dropped
	ElidedBytes    int64 // encoded bytes those accesses occupied
}

// FilterAccesses rewrites an encoded trace, dropping every Load and
// Store record whose address falls in skip and copying every other
// record byte for byte. The output is a valid stream of the same format
// version: a v2 input gets a fresh footer (CRC32C and event count of the
// kept records); a v1 input stays footerless. Nothing else is
// re-encoded, so replaying the output is indistinguishable from
// replaying the input under skip.
//
// The input is decoded by the pooled Replayer under skip, which notes
// the byte span of each skipped record, so it is verified exactly as a
// replay verifies it: a corrupt or truncated trace fails here with the
// same *streamerr.Error kinds rather than laundering into a well-formed
// filtered stream.
func FilterAccesses(data []byte, skip *SkipSet) ([]byte, FilterStats, error) {
	var cuts [][2]int
	rp := replayerPool.Get().(*Replayer)
	rp.cuts = &cuts
	defer func() {
		rp.cuts = nil
		replayerPool.Put(rp)
	}()
	n, err := rp.ReplaySkip(data, skip)
	if err != nil {
		return nil, FilterStats{}, err
	}
	st := FilterStats{OriginalEvents: n, KeptEvents: n - rp.skipped, ElidedEvents: rp.skipped}
	v2 := string(data[:len(Magic)]) == Magic
	body := data[len(Magic):]
	end := len(body)
	if v2 {
		end -= footerLen
	}
	out := append(make([]byte, 0, len(data)), data[:len(Magic)]...)
	prev := 0
	for _, c := range cuts {
		out = append(out, body[prev:c[0]]...)
		st.ElidedBytes += int64(c[1] - c[0])
		prev = c[1]
	}
	out = append(out, body[prev:end]...)
	if v2 {
		var foot [footerLen]byte
		foot[0] = footerKind
		binary.LittleEndian.PutUint32(foot[1:5], crc32.Checksum(out[len(Magic):], castagnoli))
		binary.LittleEndian.PutUint64(foot[5:13], uint64(st.KeptEvents))
		out = append(out, foot[:]...)
	}
	return out, st, nil
}
