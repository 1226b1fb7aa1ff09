package scorer

// Memory accounting: the optional Stream extension the engine's memory
// plane is built on. It estimates *stream* state only — the model
// weights behind a Scorer are shared across every session and are not
// charged here.

// DefaultStreamMemSize is the per-stream estimate charged for streams of
// backends that do not implement MemSizer: deliberately pessimistic (a
// memory budget should fail safe toward shedding, not toward OOM).
const DefaultStreamMemSize = 1 << 10

// MemSizer is the optional memory-accounting extension of Stream:
// MemSize estimates the resident heap bytes of the receiver's
// session-local state — vectors, context windows, scratch buffers —
// excluding the shared model weights. The estimate only has to be stable
// and roughly proportional to reality: the engine sums it into shard
// gauges and compares the total against EngineConfig.MemBudget.
type MemSizer interface {
	MemSize() int
}

// StreamMemSize estimates the resident bytes of one stream:
// the stream's own MemSize when implemented, DefaultStreamMemSize
// otherwise, and 0 for nil (a lazily absent per-cluster stream).
func StreamMemSize(st Stream) int {
	if st == nil {
		return 0
	}
	if m, ok := st.(MemSizer); ok {
		return m.MemSize()
	}
	return DefaultStreamMemSize
}
