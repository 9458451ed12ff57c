// Package sim stands for a package the simulator hosts: the wall-clock
// guard is run with it listed.
package sim

import "time"

// Stamp reads the wall clock: reported.
func Stamp() int64 { return time.Now().UnixNano() }

// Wait sleeps on the wall clock: reported.
func Wait() { time.Sleep(time.Nanosecond) }

// Timeout waits on a wall-clock timer: reported.
func Timeout() { <-time.After(time.Nanosecond) }

// Clock hands time.Now on as a default clock without calling it: not reported.
func Clock() func() time.Time { return time.Now }
