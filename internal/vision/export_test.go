package vision

// At returns the pixel at (x, y); out-of-bounds reads return 0.
func (f *Frame) At(x, y int) uint8 {
	if x < 0 || y < 0 || x >= f.W || y >= f.H {
		return 0
	}
	return f.Pix[y*f.W+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored. Only
// the tests draw and sample frames pixel by pixel.
func (f *Frame) Set(x, y int, v uint8) {
	if x < 0 || y < 0 || x >= f.W || y >= f.H {
		return
	}
	f.Pix[y*f.W+x] = v
}
