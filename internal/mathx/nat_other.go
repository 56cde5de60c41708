//go:build purego || !amd64

package mathx

import "unsafe"

// Without the amd64 assembly the fixed-width rows run the portable
// loop, Montgomery.Exp delegates to big.Int.Exp, and ExpBatch never
// takes the IFMA path.
const haveKernels = false

const supportIFMA = false

func mulIFMA768(z, x, y, n *uint64, n0 uint64)  { panic("mathx: no IFMA kernel on this build") }
func mulIFMA1024(z, x, y, n *uint64, n0 uint64) { panic("mathx: no IFMA kernel on this build") }

func addMulVVW768(z, x *uint64, y uint64) (c uint64) {
	return addMulVVW(unsafe.Slice(z, 768/64), unsafe.Slice(x, 768/64), y)
}

func addMulVVW1024(z, x *uint64, y uint64) (c uint64) {
	return addMulVVW(unsafe.Slice(z, 1024/64), unsafe.Slice(x, 1024/64), y)
}

func addMulVVW1536(z, x *uint64, y uint64) (c uint64) {
	return addMulVVW(unsafe.Slice(z, 1536/64), unsafe.Slice(x, 1536/64), y)
}

func addMulVVW2048(z, x *uint64, y uint64) (c uint64) {
	return addMulVVW(unsafe.Slice(z, 2048/64), unsafe.Slice(x, 2048/64), y)
}
