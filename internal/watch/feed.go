package watch

import "bgpworms/internal/feed"

// Event is feed.Event under its old name. It stays only because the
// frozen benchmark (bench/trace.go, bench/serving.go,
// bench/feed/feed_test.go) compiles against it; nothing else may name
// it, and the next benchmark change deletes this line.
type Event = feed.Event

// StreamMRT is feed.StreamMRT under its old name, kept for the frozen
// benchmark exactly like Event; nothing else may name it.
var StreamMRT = feed.StreamMRT
