//go:build purego || !amd64

package mathx

import "unsafe"

// Without the amd64 assembly the fixed-width rows run the portable
// loop, and Montgomery.Exp delegates to big.Int.Exp.
const haveKernels = false

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
