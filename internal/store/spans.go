package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// spansMagic heads every on-disk span-tree record (see encodeRecord).
const spansMagic = "RADERSP1\n"

// SpanTree is one durably stored server-side span tree: the obs.SpanDoc
// bytes raderd recorded while computing a verdict, stored next to it so a
// remote client can fetch the server's half of a distributed trace after
// the fact.
type SpanTree struct {
	// Key is the verdict-style key the record answers (digest|detector|spec
	// for analyses, programDigest|sweep for sweep jobs).
	Key string `json:"key"`
	// Traceparent is the W3C context the tree was recorded under, "" when
	// the triggering request carried none.
	Traceparent string `json:"traceparent,omitempty"`
	// Doc is the encoded obs.SpanDoc, stored verbatim.
	Doc []byte `json:"-"`
}

// encode renders the record: the meta JSON, then the span document.
func (t *SpanTree) encode() ([]byte, error) {
	return encodeRecord(spansMagic, "span-tree", t, t.Doc)
}

// decodeSpanTree parses and verifies an encoded record.
func decodeSpanTree(data []byte) (*SpanTree, error) {
	var t SpanTree
	doc, err := decodeRecord(spansMagic, "span-tree", data, &t)
	if err != nil {
		return nil, err
	}
	t.Doc = doc
	return &t, nil
}

func (s *Store) spansPath(key string) string {
	kd := verdictKeyDigest(key)
	return filepath.Join(s.dir, "spans", shard(kd), kd+".spans")
}

// PutSpans durably stores a span tree under its verdict-style key. Span
// trees are observability data: best-effort by design, so callers log
// rather than fail requests on error.
func (s *Store) PutSpans(rec *SpanTree) error {
	data, err := rec.encode()
	if err != nil {
		return err
	}
	if err := s.writeAtomic(s.spansPath(rec.Key), data); err != nil {
		return err
	}
	s.spansWrites.Add(1)
	return nil
}

// GetSpans loads and verifies the span tree stored under key. A missing
// record is (nil, false, nil); a torn or corrupt record is quarantined
// and reported as a miss — losing one loses a profile view, never a
// verdict.
func (s *Store) GetSpans(key string) (*SpanTree, bool, error) {
	path := s.spansPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: reading span tree: %w", err)
	}
	rec, err := decodeSpanTree(data)
	if err != nil {
		s.quarantine(path, err.Error())
		return nil, false, nil
	}
	if rec.Key != key {
		s.quarantine(path, "key mismatch")
		return nil, false, nil
	}
	return rec, true, nil
}
