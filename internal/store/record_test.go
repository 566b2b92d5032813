package store

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
)

// Records are durable: stores written by earlier builds must keep
// reading, so a fixed verdict and a fixed span tree encode to pinned
// bytes, and those bytes decode back to the same records.
func TestRecordEncodingPinned(t *testing.T) {
	v := &Verdict{Key: "ab|sp+|all", Digest: "ab", Detector: "sp+", Spec: "all", Clean: true,
		Report: []byte(`{"schema":5,"clean":true}`)}
	st := &SpanTree{Key: "ab|sp+|all", Traceparent: "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		Doc: []byte(`{"spans":[]}`)}
	const (
		wantVerdict = "52414445525644310a4d0000007b226b6579223a2261627c73702b7c616c6c222c22646967657374223a2261" +
			"62222c226465746563746f72223a2273702b222c2273706563223a22616c6c222c22636c65616e223a747275657d" +
			"190000007b22736368656d61223a352c22636c65616e223a747275657dfac5452a"
		wantSpans = "52414445525350310a5c0000007b226b6579223a2261627c73702b7c616c6c222c227472616365706172656e74" +
			"223a2230302d30616637363531393136636434336464383434386562323131633830333139632d6237616436623731" +
			"36393230333333312d3031227d0c0000007b227370616e73223a5b5d7db9372e85"
	)
	vb, err := v.encode()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(vb); got != wantVerdict {
		t.Errorf("verdict record encoding changed:\ngot  %s\nwant %s", got, wantVerdict)
	}
	sb, err := st.encode()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(sb); got != wantSpans {
		t.Errorf("span-tree record encoding changed:\ngot  %s\nwant %s", got, wantSpans)
	}

	pinned, _ := hex.DecodeString(wantVerdict)
	gotV, err := decodeVerdict(pinned)
	if err != nil || !reflect.DeepEqual(gotV, v) {
		t.Errorf("pinned verdict decodes to %+v, %v", gotV, err)
	}
	pinned, _ = hex.DecodeString(wantSpans)
	gotS, err := decodeSpanTree(pinned)
	if err != nil || !reflect.DeepEqual(gotS, st) {
		t.Errorf("pinned span tree decodes to %+v, %v", gotS, err)
	}
	// Each kind refuses the other's magic.
	if _, err := decodeVerdict(sb); err == nil || !bytes.Contains([]byte(err.Error()), []byte("magic")) {
		t.Errorf("a span-tree record decoded as a verdict: %v", err)
	}
	if _, err := decodeSpanTree(vb); err == nil || !bytes.Contains([]byte(err.Error()), []byte("magic")) {
		t.Errorf("a verdict record decoded as a span tree: %v", err)
	}
}
