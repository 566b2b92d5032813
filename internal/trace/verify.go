package trace

import (
	"bufio"
	"hash/crc32"
	"io"

	"repro/internal/streamerr"
)

// VerifyIntegrity checks a trace stream's framing and CRC32C footer
// without decoding records and without buffering the stream: it holds at
// most the footer's worth of trailing bytes, so verifying a multi-GB
// trace costs O(1) memory. This is the cheap durability check the
// disk-backed store runs before admitting an uploaded trace — a full
// ReplayAll also validates record structure, but costs a decode pass.
//
// A v2 stream must end in a well-formed footer whose CRC matches the
// event bytes; a v1 stream has no footer and verifies vacuously (any
// truncation of it is indistinguishable from a clean end, exactly the
// weakness the v2 footer exists to fix). Failures surface as
// *streamerr.Error with KindTruncated or KindCorrupt.
func VerifyIntegrity(r io.Reader) error {
	br := bufio.NewReaderSize(r, 64<<10)
	head := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return streamerr.Errorf("trace", streamerr.KindTruncated,
			"reading header: %v", err)
	}
	switch string(head) {
	case MagicV1:
		_, err := io.Copy(io.Discard, br)
		return err
	case Magic:
	default:
		return streamerr.New("trace", streamerr.KindMalformed, "bad magic header")
	}

	// Stream the body keeping a sliding tail of footerLen bytes: every
	// byte that falls out of the tail is an event byte and enters the
	// CRC; whatever remains at EOF must be the footer itself.
	var (
		crc  uint32
		tail = make([]byte, 0, 2*footerLen)
		buf  = make([]byte, 64<<10)
		off  = int64(len(Magic))
	)
	for {
		n, err := br.Read(buf)
		if n > 0 {
			tail = append(tail, buf[:n]...)
			if spill := len(tail) - footerLen; spill > 0 {
				crc = crc32.Update(crc, castagnoli, tail[:spill])
				off += int64(spill)
				tail = append(tail[:0], tail[spill:]...)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	if len(tail) < footerLen {
		return streamerr.Errorf("trace", streamerr.KindTruncated,
			"stream ended without footer").WithOffset(off + int64(len(tail)))
	}
	if tail[0] != footerKind {
		return streamerr.Errorf("trace", streamerr.KindCorrupt,
			"footer kind byte %#02x", tail[0]).WithOffset(off)
	}
	wantCRC := uint32(tail[1]) | uint32(tail[2])<<8 | uint32(tail[3])<<16 | uint32(tail[4])<<24
	if wantCRC != crc {
		return streamerr.Errorf("trace", streamerr.KindCorrupt,
			"CRC mismatch: footer %08x, stream %08x", wantCRC, crc).WithOffset(off)
	}
	return nil
}
