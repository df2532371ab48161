package cpu

import (
	"bufio"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestAVX2AgreesWithTheKernel: Linux lists in /proc/cpuinfo the features
// it found and enabled, avx2 only where it also saves the YMM state, so
// the probe must reach the same answer.
func TestAVX2AgreesWithTheKernel(t *testing.T) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if name, flags, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "flags" {
			if want := slices.Contains(strings.Fields(flags), "avx2"); AVX2 != want {
				t.Fatalf("probe says AVX2=%v, /proc/cpuinfo lists avx2: %v", AVX2, want)
			}
			return
		}
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
