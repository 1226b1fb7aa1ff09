package scorer

// Memory accounting and idle-state compaction: the two optional Stream
// extensions the engine's memory plane is built on. Both are estimates
// and transformations of *stream* state only — the model weights behind
// a Scorer are shared across every session and are not charged here.

// DefaultStreamMemSize is the per-stream estimate charged for streams of
// backends that do not implement MemSizer: deliberately pessimistic (a
// memory budget should fail safe toward shedding, not toward OOM).
const DefaultStreamMemSize = 1 << 10

// MemSizer is the optional memory-accounting extension of Stream (and of
// StreamSnapshot): MemSize estimates the resident heap bytes of the
// receiver's session-local state — vectors, context windows, scratch
// buffers — excluding the shared model weights. The estimate only has to
// be stable and roughly proportional to reality: the engine sums it into
// shard gauges and compares the total against EngineConfig.MemBudget.
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

// StreamSnapshot is the compact dormant form of one stream: the minimal
// state a backend needs to rebuild a stream that continues the session
// with byte-identical scores (for the n-gram, the trailing context
// window). Snapshots drop every scratch and derived buffer, which is
// where the memory win comes from; a stream that holds none, like the
// LSTM's hidden and cell vectors, may be its own snapshot.
// A snapshot must report its own footprint so compacted sessions stay
// inside the engine's accounting.
type StreamSnapshot interface {
	MemSize() int
}

// StreamCompactor is the optional Scorer extension backing idle-state
// compaction. CompactStream collapses one of the scorer's own streams
// into a snapshot; RehydrateStream rebuilds a live stream from it. The
// contract is byte-identical continuation: for any action sequence, a
// stream that was compacted and rehydrated at any point must return
// exactly the likelihoods (and distributions) the uninterrupted stream
// would have. CompactStream takes ownership of the stream — it may
// steal its buffers — so the caller must drop every reference to it.
type StreamCompactor interface {
	CompactStream(st Stream) (StreamSnapshot, error)
	RehydrateStream(snap StreamSnapshot) (Stream, error)
}
