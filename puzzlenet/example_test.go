package puzzlenet_test

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"net"

	"github.com/tcppuzzles/tcppuzzles/puzzle"
	"github.com/tcppuzzles/tcppuzzles/puzzlenet"
)

// A puzzle-verifying proxy in front of an echo backend, on loopback: the
// Dialer solves the proxy's challenge before any byte reaches the
// backend (the paper's §7 front-end tier over live sockets).
func Example() {
	backend, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer backend.Close()
	go func() {
		for {
			conn, err := backend.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.Copy(conn, conn)
			}()
		}
	}()

	// A low difficulty keeps the real SHA-256 solve to a few hundred hashes.
	issuer, err := puzzle.NewIssuer(
		puzzle.WithParams(puzzle.Params{K: 1, M: 8, L: 32}),
		puzzle.WithSecret([]byte("example proxy secret")),
	)
	if err != nil {
		log.Fatal(err)
	}
	front, err := puzzlenet.Listen("127.0.0.1:0", issuer)
	if err != nil {
		log.Fatal(err)
	}
	proxy := puzzlenet.NewProxy(front, backend.Addr().String())
	go proxy.Serve()
	defer proxy.Close()

	conn, err := (&puzzlenet.Dialer{}).Dial("tcp", front.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintln(conn, "hello through the verified tunnel")
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(reply)
	// Output: hello through the verified tunnel
}
