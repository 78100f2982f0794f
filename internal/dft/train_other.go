//go:build !amd64

package dft

// useAVX2 is false off amd64: AddTrain runs the Go sweep alone.
var useAVX2 = false

func addTrainAVX2(dst []complex128, evs []int32, ws []float64, steps []complex128) {
	panic("dft: the vector sweep is amd64 only")
}
