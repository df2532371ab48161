package cpu

// The probes of cpu_amd64.s.

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xcr0() uint32

func init() {
	AVX2 = hasAVX2()
}

func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0()&6 != 6 { // XMM and YMM state
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}
