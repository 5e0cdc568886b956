package main

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// l3Bytes returns the size of the largest level-3 cache the CPU reports
// through its deterministic cache parameters leaf (4 on Intel, 0x8000001D
// on AMD), or 0 when it reports none.
func l3Bytes() int64 {
	maxStd, _, _, _ := cpuid(0, 0)
	maxExt, _, _, _ := cpuid(0x80000000, 0)
	var best int64
	for _, leaf := range []uint32{4, 0x8000001D} {
		if (leaf < 0x80000000 && leaf > maxStd) || (leaf >= 0x80000000 && leaf > maxExt) {
			continue
		}
		for sub := uint32(0); sub < 16; sub++ {
			eax, ebx, ecx, _ := cpuid(leaf, sub)
			if eax&0x1f == 0 { // no more caches
				break
			}
			if (eax>>5)&7 != 3 {
				continue
			}
			ways := int64(ebx>>22) + 1
			parts := int64((ebx>>12)&0x3ff) + 1
			line := int64(ebx&0xfff) + 1
			sets := int64(ecx) + 1
			best = max(best, ways*parts*line*sets)
		}
	}
	return best
}
