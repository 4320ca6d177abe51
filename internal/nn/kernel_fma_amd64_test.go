//go:build amd64 && !noasm

package nn

func init() { gemmKernel = "avx2+fma" }
