//go:build race

package core

// raceEnabled reports a -race build. Under the race detector,
// sync.Pool.Put drops a random quarter of the items it is handed
// ($GOROOT/src/sync/pool.go, Put), so SubmitTokens' pooled event batches
// are rebuilt now and then and the zero-allocation test would count those
// rebuilds; plain `go test` keeps asserting 0.
const raceEnabled = true
