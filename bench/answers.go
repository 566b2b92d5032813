package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// expectedJSON holds the known answers: for every fixed input × detector
// path, the distinct race counts and the SHA-256 of the verdict
// document. bench -regen-expected rewrites it, and only after the
// cross-path contracts hold.
//
//go:embed expected.json
var expectedJSON []byte

// answer is one known verdict.
type answer struct {
	Races  map[string]int `json:"races"`
	SHA256 string         `json:"sha256"`
}

type expectedFile struct {
	Schema  int               `json:"schema"`
	Answers map[string]answer `json:"answers"`
}

const expectedSchema = 1

// answers maps a known-answer key to its verdict. Keys name the
// workload path and the input: live/<app>@<scale>/<config>,
// replay/<app>@<scale>/<detector>, sweep/<input>, and, for the serve
// workload's random programs, serve/random-<seed>/<detector> (derived
// from the library replay path before the load phase, not stored).
type answers map[string]answer

func loadAnswers() (answers, error) {
	var f expectedFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	if f.Schema != expectedSchema {
		return nil, fmt.Errorf("expected.json: schema %d, want %d", f.Schema, expectedSchema)
	}
	return f.Answers, nil
}

// check compares a verdict document with its known answer.
func (a answers) check(key string, doc []byte) error {
	want, ok := a[key]
	if !ok {
		return fmt.Errorf("no known answer for %s", key)
	}
	if got := digestHex(doc); got != want.SHA256 {
		return fmt.Errorf("verdict %s differs from the known answer %s", got[:12], want.SHA256[:12])
	}
	return nil
}

func digestHex(doc []byte) string {
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:])
}

// answerOf derives the known answer of a verdict document: its digest
// and distinct race count per detector (a sweep document counts its
// determinacy findings and its view-read races).
func answerOf(doc []byte) (answer, error) {
	var d struct {
		Detector  string            `json:"detector"`
		Distinct  int               `json:"distinct"`
		Reports   []json.RawMessage `json:"reports"`
		Races     []json.RawMessage `json:"races"`
		ViewReads []json.RawMessage `json:"viewReads"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return answer{}, err
	}
	a := answer{Races: map[string]int{}, SHA256: digestHex(doc)}
	switch {
	case d.Reports != nil:
		for _, raw := range d.Reports {
			var sub struct {
				Detector string `json:"detector"`
				Distinct int    `json:"distinct"`
			}
			if err := json.Unmarshal(raw, &sub); err != nil {
				return answer{}, err
			}
			a.Races[sub.Detector] = sub.Distinct
		}
	case d.Detector != "":
		a.Races[d.Detector] = d.Distinct
	default:
		a.Races["sweep"] = len(d.Races)
		a.Races["view-read"] = len(d.ViewReads)
	}
	return a, nil
}
