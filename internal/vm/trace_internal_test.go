package vm

import (
	"testing"
	"unsafe"
)

// TestTraceRecSize pins the 16-byte record, repeat count included,
// that ChunkBytes and the launch memo's retention budget assume.
func TestTraceRecSize(t *testing.T) {
	if got := unsafe.Sizeof(traceRec{}); got != 16 || ChunkBytes != chunkRecs*got {
		t.Fatalf("traceRec is %d bytes, ChunkBytes %d: want 16 and %d", got, ChunkBytes, chunkRecs*got)
	}
}
