package fec

// gfDiv divides a by b (b must be nonzero).
func gfDiv(a, b byte) byte {
	if a == 0 {
		return 0
	}
	return gfExp[gfLog[a]-gfLog[b]+255]
}
