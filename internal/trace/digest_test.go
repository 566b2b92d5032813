package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cilk"
	"repro/internal/mem"
	"repro/internal/progs"
	"repro/internal/spplus"
)

// The writer's incremental digest must equal DigestOf over the encoded
// stream — that equivalence is what lets a recording client and the
// analysis service agree on a cache key without a second pass.
func TestWriterDigestMatchesDigestOf(t *testing.T) {
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	al := mem.NewAllocator()
	cilk.Run(progs.Fig1(al, progs.Fig1Options{}), cilk.Config{Spec: cilk.StealAll{}, Hooks: tw})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := tw.Digest()
	if err != nil {
		t.Fatal(err)
	}
	want, err := DigestOf(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("writer digest %s != DigestOf %s", got, want)
	}
	if len(got.String()) != 64 {
		t.Fatalf("digest hex should be 64 chars, got %q", got)
	}
}

// Label bytes must flow through the same CRC/digest bookkeeping as every
// other byte of the stream (emitString once bypassed write and kept its
// own copy of that accounting). Property: on label-heavy traces — long,
// varied frame labels, across several shapes — the writer's incremental
// digest equals DigestOf over the written bytes, and the footer CRC the
// writer emitted verifies on replay.
func TestWriterDigestLabelHeavy(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		var buf bytes.Buffer
		tw := NewWriter(&buf)
		prog := func(c *cilk.Ctx) {
			for i := 0; i < 16; i++ {
				label := fmt.Sprintf("frame-%d-%d-%s", trial, i, strings.Repeat("λ", trial+i%5))
				c.Spawn(label, func(cc *cilk.Ctx) {
					cc.Call(label+"/callee-with-a-deliberately-long-label", func(*cilk.Ctx) {})
				})
			}
			c.Sync()
		}
		cilk.Run(prog, cilk.Config{Spec: cilk.StealAll{}, Hooks: tw})
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := tw.Digest()
		if err != nil {
			t.Fatal(err)
		}
		want, err := DigestOf(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: writer digest %s != DigestOf %s", trial, got, want)
		}
		if _, err := ReplayAll(buf.Bytes(), nil, nil, spplus.New()); err != nil {
			t.Fatalf("trial %d: label-heavy stream failed integrity replay: %v", trial, err)
		}
	}
}

// Identical runs produce identical digests; a different schedule produces a
// different stream and therefore a different digest.
func TestDigestDistinguishesContent(t *testing.T) {
	record := func(spec cilk.StealSpec) Digest {
		var buf bytes.Buffer
		tw := NewWriter(&buf)
		al := mem.NewAllocator()
		cilk.Run(progs.Fig1(al, progs.Fig1Options{}), cilk.Config{Spec: spec, Hooks: tw})
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		d, err := tw.Digest()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := record(nil), record(nil)
	if a != b {
		t.Fatalf("identical runs must digest identically: %s vs %s", a, b)
	}
	c := record(cilk.StealAll{})
	if a == c {
		t.Fatal("different schedules must not collide on the digest")
	}
}

// Digest before Close must refuse: the footer is not hashed yet, so the
// value would never match DigestOf over the file — a service caching under
// it would create entries no upload can ever hit (or worse, collide with a
// differently-footered stream). After Close the digest latches; after a
// failed Close the failure latches too.
func TestDigestBeforeCloseRefuses(t *testing.T) {
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	al := mem.NewAllocator()
	cilk.Run(progs.Fig1(al, progs.Fig1Options{}), cilk.Config{Spec: cilk.StealAll{}, Hooks: tw})
	if _, err := tw.Digest(); err != ErrDigestBeforeClose {
		t.Fatalf("pre-Close Digest error = %v, want ErrDigestBeforeClose", err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := tw.Digest()
	if err != nil {
		t.Fatalf("post-Close Digest: %v", err)
	}
	want, err := DigestOf(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d != want {
		t.Fatalf("post-Close digest %s != DigestOf %s", d, want)
	}

	// A writer whose Close failed must refuse to produce a digest at all.
	bad := NewWriter(&failWriter{n: 4})
	cilk.Run(progs.Fig2Reads(1), cilk.Config{Hooks: bad})
	if bad.Close() == nil {
		t.Fatal("write failure must surface at Close")
	}
	if _, err := bad.Digest(); err == nil {
		t.Fatal("Digest after a failed Close must carry the latched error")
	}
}

// Equal digests must mean equal replay verdicts: replay the same bytes
// twice and compare detector summaries.
func TestDigestImpliesReplayEquivalence(t *testing.T) {
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	al := mem.NewAllocator()
	cilk.Run(progs.Fig1(al, progs.Fig1Options{}), cilk.Config{Spec: cilk.StealAll{}, Hooks: tw})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	run := func() string {
		d := spplus.New()
		if _, err := ReplayAll(buf.Bytes(), nil, nil, d); err != nil {
			t.Fatal(err)
		}
		return d.Report().Summary()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same digest, different verdicts:\n%s\nvs\n%s", a, b)
	}
}

// A second Close must return the same latched error as the first, not nil
// — the service's upload handler defer-closes unconditionally and must not
// see a failure vanish.
func TestCloseIdempotentError(t *testing.T) {
	tw := NewWriter(&failWriter{n: 4})
	cilk.Run(progs.Fig2Reads(1), cilk.Config{Hooks: tw})
	first := tw.Close()
	if first == nil {
		t.Fatal("write failure must surface at first Close")
	}
	second := tw.Close()
	if second != first {
		t.Fatalf("second Close returned %v, want the latched %v", second, first)
	}
	if third := tw.Close(); third != first {
		t.Fatalf("third Close returned %v, want the latched %v", third, first)
	}
}

// A clean double Close stays clean and writes the footer exactly once.
func TestCloseIdempotentClean(t *testing.T) {
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	cilk.Run(progs.Fig2Reads(1), cilk.Config{Hooks: tw})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	if err := tw.Close(); err != nil {
		t.Fatalf("second Close on a healthy stream: %v", err)
	}
	if buf.Len() != size {
		t.Fatalf("second Close grew the stream from %d to %d bytes", size, buf.Len())
	}
	if _, err := ReplayAll(buf.Bytes(), nil, nil, spplus.New()); err != nil {
		t.Fatal(err)
	}
}
