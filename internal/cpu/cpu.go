// Package cpu is the tree's one CPUID probe and its one CPU fan-out.
//
// The probe decides, once, at init, whether this process runs the AVX2
// kernels — the int8 GEMM in qinfer and the checksum's inner loop in core.
// No flag, environment variable or build tag changes the answer; each
// package keeps its pure-Go kernel as the path for every other host and as
// the reference its tests hold the AVX2 one to.
//
// Parallel spreads a caller's independent tasks over CPUs: core's shard
// scans and golden refresh, and Conv2D's per-sample forward and backward.
// The kernels themselves (tensor's float GEMMs, core's checksum) run
// serially on the goroutine that calls them, so every pass fans out once,
// at the caller that holds the batch or the shard list.
package cpu

// AVX2 reports whether the CPU executes AVX2 and the OS saves the YMM
// registers across context switches; the first without the second
// faults. It is set by cpu_amd64.go's init and stays false on every other
// GOARCH.
var AVX2 bool
