//go:build !amd64

package qinfer

// The AVX2 legs exist on amd64 only; gemmLive is never set elsewhere.
func widenAVX2(dst []int16, a []int8, M, K int) {
	panic("qinfer: no AVX2 leg on this GOARCH")
}

func requantConvAVX2(dst *int8, acc *int32, rows, w, aw int, a, b, accScale, floor, scale float64) {
	panic("qinfer: no AVX2 leg on this GOARCH")
}

func requantAddAVX2(dst, mq, sq *int8, n int, ms, ss, floor, scale float64) {
	panic("qinfer: no AVX2 leg on this GOARCH")
}
