package dft

// useAVX2 selects the assembly sweep of AddTrain. It is set once, at package
// init: the CPU must report AVX and AVX2, and the OS must save the YMM
// registers on a context switch (OSXSAVE, with XCR0's SSE and AVX bits set).
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, ecx1, _ := cpuid(1, 0)
	// XGETBV faults unless OSXSAVE is set, so it is asked only after.
	if ecx1&(osxsave|avx) != osxsave|avx || xgetbv0()&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

// addTrainAVX2 is AddTrain's sweep for a train whose length is a multiple
// of eight, with every event position valid in steps and len(ws) ≥ len(evs).
//
//go:noescape
func addTrainAVX2(dst []complex128, evs []int32, ws []float64, steps []complex128)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low half of XCR0, the OS-enabled state components.
func xgetbv0() (eax uint32)
