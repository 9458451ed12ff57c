package vision

import (
	"math/bits"
	"math/rand"
	"sort"
)

// Keypoint is a detected corner with its detector response.
type Keypoint struct {
	X, Y  int
	Score int
}

// fastCircle is the 16-pixel Bresenham circle of radius 3 used by FAST.
var fastCircle = [16][2]int{
	{0, -3}, {1, -3}, {2, -2}, {3, -1},
	{3, 0}, {3, 1}, {2, 2}, {1, 3},
	{0, 3}, {-1, 3}, {-2, 2}, {-3, 1},
	{-3, 0}, {-3, -1}, {-2, -2}, {-1, -3},
}

// DetectFAST runs a FAST-9 style corner detector: a pixel is a corner if 9
// contiguous pixels on the radius-3 circle are all brighter than
// center+thresh or all darker than center-thresh. Non-maximum suppression
// keeps the strongest response in each 3x3 neighbourhood, and at most
// maxFeatures strongest corners are returned (0 = unlimited).
func DetectFAST(f *Frame, thresh int, maxFeatures int) []Keypoint {
	const arc = 9
	w, h := f.W, f.H
	scores := make([]int, w*h)
	var kps []Keypoint
	for y := 3; y < h-3; y++ {
		for x := 3; x < w-3; x++ {
			c := int(f.Pix[y*w+x])
			hi, lo := c+thresh, c-thresh
			// Quick reject using the 4 compass points: a 9-contiguous arc
			// must cover at least 2 of them.
			out := 0
			for _, i := range [4]int{0, 4, 8, 12} {
				p := int(f.Pix[(y+fastCircle[i][1])*w+x+fastCircle[i][0]])
				if p > hi || p < lo {
					out++
				}
			}
			if out < 2 {
				continue
			}
			score := fastScore(f, x, y, c, thresh, arc)
			if score > 0 {
				scores[y*w+x] = score
			}
		}
	}
	// Non-maximum suppression in 3x3 windows.
	for y := 3; y < h-3; y++ {
		for x := 3; x < w-3; x++ {
			s := scores[y*w+x]
			if s == 0 {
				continue
			}
			isMax := true
		neigh:
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 {
						continue
					}
					n := scores[(y+dy)*w+x+dx]
					if n > s || (n == s && (dy < 0 || (dy == 0 && dx < 0))) {
						isMax = false
						break neigh
					}
				}
			}
			if isMax {
				kps = append(kps, Keypoint{X: x, Y: y, Score: s})
			}
		}
	}
	sort.Slice(kps, func(i, j int) bool {
		if kps[i].Score != kps[j].Score {
			return kps[i].Score > kps[j].Score
		}
		if kps[i].Y != kps[j].Y {
			return kps[i].Y < kps[j].Y
		}
		return kps[i].X < kps[j].X
	})
	if maxFeatures > 0 && len(kps) > maxFeatures {
		kps = kps[:maxFeatures]
	}
	return kps
}

// fastScore returns a positive corner response (sum of absolute threshold
// exceedances over the best contiguous arc) or 0 if no 9-contiguous arc
// exists.
func fastScore(f *Frame, x, y, c, thresh, arc int) int {
	w := f.W
	var d [32]int // circle differences, doubled for wraparound
	for i, off := range fastCircle {
		p := int(f.Pix[(y+off[1])*w+x+off[0]])
		d[i] = p - c
		d[i+16] = d[i]
	}
	best := 0
	// Brighter arcs.
	run, sum := 0, 0
	for i := 0; i < 32; i++ {
		if d[i] > thresh {
			run++
			sum += d[i] - thresh
			if run >= arc && sum > best && i < 16+arc {
				best = sum
			}
		} else {
			run, sum = 0, 0
		}
	}
	// Darker arcs.
	run, sum = 0, 0
	for i := 0; i < 32; i++ {
		if d[i] < -thresh {
			run++
			sum += -d[i] - thresh
			if run >= arc && sum > best && i < 16+arc {
				best = sum
			}
		} else {
			run, sum = 0, 0
		}
	}
	return best
}

// DescriptorLen is the BRIEF descriptor size in bytes (256 bits).
const DescriptorLen = 32

// Descriptor is a 256-bit binary feature descriptor.
type Descriptor [DescriptorLen]byte

// Feature couples a keypoint with its descriptor. A serialized feature is
// what CloudRidAR-style offloading ships instead of pixels: position (8
// bytes) + descriptor (32 bytes).
type Feature struct {
	Kp   Keypoint
	Desc Descriptor
}

// FeatureWireBytes is the serialized size of one feature.
const FeatureWireBytes = 8 + DescriptorLen

// briefPattern holds 256 point pairs in a 31x31 patch, fixed for the whole
// process so descriptors are comparable across frames and machines.
var briefPattern = makeBriefPattern()

func makeBriefPattern() [256][4]int {
	rng := rand.New(rand.NewSource(20170617)) // fixed: descriptors must be stable
	var pat [256][4]int
	for i := range pat {
		for j := 0; j < 4; j++ {
			pat[i][j] = rng.Intn(25) - 12 // coordinates in [-12, 12]
		}
	}
	return pat
}

// Describe computes BRIEF descriptors for the keypoints on a smoothed copy
// of the frame. Keypoints too close to the border are dropped.
func Describe(f *Frame, kps []Keypoint) []Feature {
	sm := f.BoxBlur(2)
	feats := make([]Feature, 0, len(kps))
	for _, kp := range kps {
		if kp.X < 13 || kp.Y < 13 || kp.X >= f.W-13 || kp.Y >= f.H-13 {
			continue
		}
		var d Descriptor
		for i, p := range briefPattern {
			a := sm.Pix[(kp.Y+p[1])*sm.W+kp.X+p[0]]
			b := sm.Pix[(kp.Y+p[3])*sm.W+kp.X+p[2]]
			if a < b {
				d[i/8] |= 1 << (i % 8)
			}
		}
		feats = append(feats, Feature{Kp: kp, Desc: d})
	}
	return feats
}

// Hamming returns the bit distance between two descriptors.
func Hamming(a, b Descriptor) int {
	dist := 0
	for i := range a {
		dist += bits.OnesCount8(a[i] ^ b[i])
	}
	return dist
}

// Match is a correspondence between feature indexes in two sets.
type Match struct {
	I, J int // indexes into the query and train feature sets
}

// MatchFeatures brute-force matches query features against train features
// with a Lowe-style ratio test: a match is kept when the best distance is
// below maxDist and at most ratio times the second-best distance
// (ratio in [0,1]; 0.8 is typical).
func MatchFeatures(query, train []Feature, maxDist int, ratio float64) []Match {
	var out []Match
	for i := range query {
		best, second := 1<<30, 1<<30
		bestJ := -1
		for j := range train {
			d := Hamming(query[i].Desc, train[j].Desc)
			if d < best {
				second = best
				best, bestJ = d, j
			} else if d < second {
				second = d
			}
		}
		if bestJ < 0 || best > maxDist {
			continue
		}
		if second < 1<<30 && float64(best) > ratio*float64(second) {
			continue
		}
		out = append(out, Match{I: i, J: bestJ})
	}
	return out
}
