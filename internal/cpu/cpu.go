// Package cpu is the tree's one CPUID probe: it decides, once, at init,
// whether this process runs the AVX2 kernels — the int8 GEMM in qinfer
// and the checksum's inner loop in core. No flag, environment variable or
// build tag changes the answer; each package keeps its pure-Go kernel as
// the path for every other host and as the reference its tests hold the
// AVX2 one to.
package cpu

// AVX2 reports whether the CPU executes AVX2 and the OS saves the YMM
// registers across context switches; the first without the second
// faults. It is set by cpu_amd64.go's init and stays false on every other
// GOARCH.
var AVX2 bool
