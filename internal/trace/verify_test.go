package trace

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/progs"
	"repro/internal/streamerr"
)

// recordedFig1 returns a closed v2 trace of fig1 under the all-steals
// specification.
func recordedFig1(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	cilk.Run(progs.Fig1(mem.NewAllocator(), progs.Fig1Options{}),
		cilk.Config{Spec: cilk.StealAll{}, Hooks: w})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestVerifyIntegrityCleanV2(t *testing.T) {
	data := recordedFig1(t)
	if err := VerifyIntegrity(bytes.NewReader(data)); err != nil {
		t.Fatalf("clean v2 trace must verify: %v", err)
	}
}

func TestVerifyIntegrityTruncation(t *testing.T) {
	data := recordedFig1(t)
	// Every proper prefix of a v2 stream must fail verification: either
	// the footer is missing, or the bytes that remain are not a valid
	// footer for the truncated body.
	for _, cut := range []int{0, 1, len(Magic), len(Magic) + 1, len(data) / 2, len(data) - 1, len(data) - footerLen} {
		if cut >= len(data) {
			continue
		}
		err := VerifyIntegrity(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d of %d must fail verification", cut, len(data))
		}
		var se *streamerr.Error
		if !errors.As(err, &se) {
			t.Fatalf("truncation at %d: error must be *streamerr.Error, got %T: %v", cut, err, err)
		}
	}
}

func TestVerifyIntegrityCorruption(t *testing.T) {
	data := recordedFig1(t)
	// Flipping any single event byte breaks the CRC; flipping the footer
	// kind or CRC bytes breaks the footer check. (The footer's trailing
	// event count is only validated by a decoding Replay, not here.)
	for _, at := range []int{len(Magic), len(Magic) + 7, len(data) / 2, len(data) - footerLen, len(data) - footerLen + 2} {
		mut := append([]byte(nil), data...)
		mut[at] ^= 0xFF
		err := VerifyIntegrity(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("flipped byte at %d must fail verification", at)
		}
		var se *streamerr.Error
		if !errors.As(err, &se) {
			t.Fatalf("flip at %d: error must be *streamerr.Error, got %T: %v", at, err, err)
		}
		if se.Kind != streamerr.KindCorrupt && se.Kind != streamerr.KindTruncated && se.Kind != streamerr.KindMalformed {
			t.Fatalf("flip at %d: unexpected kind %v", at, se.Kind)
		}
	}
}

func TestVerifyIntegrityV1IsVacuous(t *testing.T) {
	// v1 has no footer: the header alone (and any byte soup after it)
	// verifies, because there is nothing to verify against.
	if err := VerifyIntegrity(bytes.NewReader([]byte(MagicV1))); err != nil {
		t.Fatalf("bare v1 header: %v", err)
	}
	if err := VerifyIntegrity(bytes.NewReader(append([]byte(MagicV1), 1, 2, 3))); err != nil {
		t.Fatalf("v1 with body: %v", err)
	}
}

// VerifyIntegrity must agree with Replay's verdict on footer integrity:
// any stream Replay accepts, VerifyIntegrity accepts.
func TestVerifyIntegrityAgreesWithReplay(t *testing.T) {
	data := recordedFig1(t)
	if _, err := ReplayAll(data, nil, nil); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := VerifyIntegrity(bytes.NewReader(data)); err != nil {
		t.Fatalf("verify: %v", err)
	}
}
