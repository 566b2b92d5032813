package faults_test

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/cilk"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/progs"
	"repro/internal/spplus"
	"repro/internal/streamerr"
	"repro/internal/trace"
)

var fuzzTrace struct {
	once sync.Once
	data []byte
}

func fuzzTraceBytes() []byte {
	fuzzTrace.once.Do(func() {
		var buf bytes.Buffer
		tw := trace.NewWriter(&buf)
		al := mem.NewAllocator()
		cilk.Run(progs.Fig1(al, progs.Fig1Options{}), cilk.Config{Spec: cilk.StealAll{}, Hooks: tw})
		if err := tw.Close(); err != nil {
			panic(err)
		}
		fuzzTrace.data = buf.Bytes()
	})
	return fuzzTrace.data
}

// FuzzFaultPlan: an arbitrary (kind, index) plan injected into SP+ during
// replay of a fixed reducer-heavy trace must yield a nil error or a typed
// *streamerr.Error — the process must never crash, whatever the plan.
func FuzzFaultPlan(f *testing.F) {
	f.Add(byte(0), int64(0))
	f.Add(byte(1), int64(5))
	f.Add(byte(2), int64(17))
	f.Add(byte(3), int64(100))
	f.Add(byte(4), int64(3))
	f.Add(byte(200), int64(-9))
	f.Fuzz(func(t *testing.T, kindByte byte, at int64) {
		plan := faults.Plan{
			Kind: faults.FaultKind(int(kindByte) % int(faults.NumKinds)),
			At:   at,
		}
		inj := faults.New(spplus.New(), plan)
		_, err := trace.ReplayAll(fuzzTraceBytes(), nil, nil, inj)
		if err == nil {
			return
		}
		var se *streamerr.Error
		if !errors.As(err, &se) {
			t.Fatalf("plan %v: untyped error %v", plan, err)
		}
	})
}
