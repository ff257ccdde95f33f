package features

// Hooks for the external benchmark package.

// LegacySelect is the serial reference selection the benchmark's baseline
// arm runs.
var LegacySelect = legacySelect

// SetWorkers bounds the worker goroutines the selection kernels fan out to;
// 0 restores the GOMAXPROCS default.
func SetWorkers(n int) { workers.Store(int32(n)) }
