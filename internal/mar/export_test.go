package mar

import "time"

// InTime reports whether a per-frame delay satisfies δa (Equation 1's
// constraint P < δa).
func InTime(delay time.Duration, a App) bool {
	d := a.Deadline()
	return d > 0 && delay < d
}
