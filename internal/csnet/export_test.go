package csnet

import (
	"os"
	"testing"
)

// TestMain turns poison-on-release on for the whole suite: every
// buffer the transport releases is overwritten with 0xDB, so an alias
// that outlives its owner corrupts what some existing test asserts on.
func TestMain(m *testing.M) {
	TestPoisonRelease = true
	os.Exit(m.Run())
}
