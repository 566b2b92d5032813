package trace

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/cilk"
	"repro/internal/streamerr"
)

// v1Stream assembles a footerless stream from raw records.
type v1Stream []byte

func (s v1Stream) rec(k kind, args ...uint64) v1Stream {
	s = append(s, byte(k))
	for _, a := range args {
		s = binary.AppendUvarint(s, a)
	}
	return s
}

func (s v1Stream) label(l string) v1Stream {
	return append(binary.AppendUvarint(s, uint64(len(l))), l...)
}

// TestFrameIDOverflowRejected: a frame ID that does not fit
// cilk.FrameID is malformed input. Truncating it would alias another
// frame, so both decoders reject it with the same kind, text, event and
// offset — whether it arrives on a frame entry or on a later reference.
func TestFrameIDOverflowRejected(t *testing.T) {
	const big = 1<<32 + 1 // truncates to frame 1
	head := v1Stream(MagicV1).rec(evProgramStart).
		rec(evFrameEnterCall, 0).label("main").
		rec(evFrameEnterSpawn, 1).label("child")
	head = head[:len(head):len(head)] // every case appends to its own copy
	cases := map[string]v1Stream{
		"enter":   v1Stream(MagicV1).rec(evProgramStart).rec(evFrameEnterCall, 0).label("main").rec(evFrameEnterSpawn, big).label("child"),
		"store":   head.rec(evStore, big, 64),
		"return":  head.rec(evFrameReturn, big, 0),
		"sync":    head.rec(evSync, big),
		"reduce":  head.rec(evReduceEnd, big),
		"maxuint": head.rec(evLoad, 1<<64-1, 64),
	}
	for name, data := range cases {
		_, streamErr := replayReference(data, cilk.Empty{})
		_, allErr := ReplayAll(data, nil, nil, cilk.Empty{})
		var se *streamerr.Error
		if !errors.As(streamErr, &se) || se.Kind != streamerr.KindMalformed {
			t.Fatalf("%s: the reference returned %v, want a malformed-input error", name, streamErr)
		}
		if allErr == nil || streamErr.Error() != allErr.Error() {
			t.Fatalf("%s: decoders disagree:\nreference: %v\nReplayAll: %v", name, streamErr, allErr)
		}
	}

	// The largest ID that fits still replays (and is merely unknown).
	_, err := ReplayAll(head.rec(evStore, 1<<31-1, 64), nil, nil, cilk.Empty{})
	var se *streamerr.Error
	if !errors.As(err, &se) || se.Kind != streamerr.KindOrder {
		t.Fatalf("frame 2^31-1 returned %v, want an unknown-frame order error", err)
	}
}
