//go:build amd64 && !noasm

package experiments

func init() { fmaKernels = true }
