package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
)

var recordCRC = crc32.MakeTable(crc32.Castagnoli)

// maxRecordSection bounds each length-prefixed section of a record; a
// torn length prefix must not trigger a giant allocation.
const maxRecordSection = 1 << 30

// encodeRecord renders one durable record, verdict or span tree:
//
//	magic | u32 metaLen | meta JSON | u32 payloadLen | payload | u32 CRC32C
//
// with all integers little-endian and the CRC covering everything before
// it (magic included). The CRC is the torn-write detector: any prefix or
// bitflip of a record fails decodeRecord and is quarantined. The magic's
// trailing digit is the record-format version; bumping the layout bumps
// the magic, and old records then quarantine-and-recompute rather than
// misparse.
func encodeRecord(magic, what string, meta any, payload []byte) ([]byte, error) {
	m, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("store: encoding %s meta: %w", what, err)
	}
	out := make([]byte, 0, len(magic)+8+len(m)+len(payload)+4)
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(m)))
	out = append(out, m...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, recordCRC))
	return out, nil
}

// decodeRecord parses and verifies a record encodeRecord wrote under
// magic, unmarshals its meta JSON into meta and returns a copy of its
// payload. Any framing or checksum violation is an error naming what;
// callers quarantine and treat it as a miss.
func decodeRecord(magic, what string, data []byte, meta any) ([]byte, error) {
	if len(data) < len(magic)+4+4+4 {
		return nil, fmt.Errorf("store: %s record truncated (%d bytes)", what, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("store: bad %s magic", what)
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body, recordCRC); got != sum {
		return nil, fmt.Errorf("store: %s checksum mismatch: record %08x, content %08x", what, sum, got)
	}
	p := body[len(magic):]
	metaLen := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if uint64(metaLen) > maxRecordSection || uint64(metaLen)+4 > uint64(len(p)) {
		return nil, fmt.Errorf("store: %s meta length %d exceeds record", what, metaLen)
	}
	m := p[:metaLen]
	p = p[metaLen:]
	payloadLen := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if uint64(payloadLen) != uint64(len(p)) {
		return nil, fmt.Errorf("store: %s payload length %d, %d bytes remain", what, payloadLen, len(p))
	}
	if err := json.Unmarshal(m, meta); err != nil {
		return nil, fmt.Errorf("store: %s meta: %w", what, err)
	}
	return append([]byte(nil), p...), nil
}
