//go:build !linux

package netsim

import "time"

// waitPrecise has no kernel timer to use here; waitUntil falls back to the
// Go timer.
func waitPrecise(time.Duration) bool { return false }
