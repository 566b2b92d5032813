package store

// verdictMagic heads every on-disk verdict record (see encodeRecord).
const verdictMagic = "RADERVD1\n"

// Verdict is one durably stored analysis result: the exact report
// document bytes the service returned (byte-identical replay across
// restarts is the whole contract), plus the envelope metadata needed to
// rebuild the in-memory cache entry without decoding the document.
type Verdict struct {
	// Key is the cache key the record answers: digest|detector|spec.
	Key string `json:"key"`
	// Digest is the content identity of the analyzed trace or program.
	Digest string `json:"digest"`
	// Detector and Spec echo the analyzed configuration.
	Detector string `json:"detector"`
	Spec     string `json:"spec,omitempty"`
	// Clean mirrors the document's verdict for envelope reuse.
	Clean bool `json:"clean"`
	// Report is the encoded report document, stored verbatim.
	Report []byte `json:"-"`
}

// encode renders the record: the meta JSON, then the report document.
func (v *Verdict) encode() ([]byte, error) {
	return encodeRecord(verdictMagic, "verdict", v, v.Report)
}

// decodeVerdict parses and verifies an encoded record.
func decodeVerdict(data []byte) (*Verdict, error) {
	var v Verdict
	doc, err := decodeRecord(verdictMagic, "verdict", data, &v)
	if err != nil {
		return nil, err
	}
	v.Report = doc
	return &v, nil
}
