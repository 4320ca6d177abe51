//go:build amd64 && !noasm

package baselines

func init() { fmaKernels = true }
