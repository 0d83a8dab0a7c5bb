package main

import (
	"os"
	"testing"

	"pdcedu/internal/csnet"
)

// TestMain runs the lab's tests with the transport's poison-on-release
// on (see csnet.TestPoisonRelease): an RPC reply decoded after the
// transport recycled the frame under it would read back as 0xDB.
func TestMain(m *testing.M) {
	csnet.TestPoisonRelease = true
	os.Exit(m.Run())
}
