package main

import "time"

// now is the benchmark's single wall-clock read: every timing, schedule and
// span starts here.
func now() time.Time { return time.Now() }
