package core

import (
	"repro/internal/cilk"
	"repro/internal/streamerr"
)

// Violatef builds the *streamerr.Error a detector panics with on an event
// contract violation. The event index is unknown at the detection site
// (detectors do not count events); the recovery point fills it in.
func Violatef(layer string, kind streamerr.Kind, frame cilk.FrameID, format string, a ...any) *streamerr.Error {
	return streamerr.Errorf(layer, kind, format, a...).WithFrame(int64(frame))
}
