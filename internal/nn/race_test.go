//go:build race

package nn

// raceEnabled reports a -race build. Under the race detector,
// sync.Pool.Put drops a random quarter of the items it is handed
// ($GOROOT/src/sync/pool.go, Put), so AdvanceBatch's pooled scratch and
// tensor's pooled GEMM packing buffer are rebuilt now and then and the
// zero-allocation tests would count those rebuilds. With both pools
// bypassed the same tests measure 0 allocations under -race; plain
// `go test` keeps asserting 0.
const raceEnabled = true
