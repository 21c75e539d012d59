// The benchmark is a module of its own, so building it never touches the
// repository's go.mod. Its path sits under handshakejoin/ so the layer
// ladder may import handshakejoin/internal/...; the replace points at
// the checkout this directory lives in.
module handshakejoin/benchmark

go 1.24

require handshakejoin v0.0.0

replace handshakejoin => ../
