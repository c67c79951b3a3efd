// Package tcpopt encodes and decodes the TCP option blocks of the client
// puzzles extension (paper §5, Figures 4 and 5) together with the standard
// TCP options the extension interacts with (MSS and window scale).
//
// The challenge option (kind 0xfc) rides on the SYN-ACK:
//
//	+--------+--------+--------+--------+
//	| 0xfc   | Length |   k    |   m    |
//	+--------+--------+--------+--------+
//	|   l    |  Preimage (l/8 bytes)... |
//	+--------+--------+--------+--------+
//	| [timestamp, 4 bytes, optional]    |
//	+--------+--------+--------+--------+
//	| NOP padding to 32-bit alignment   |
//	+-----------------------------------+
//
// The solution option (kind 0xfd) rides on the final ACK and re-sends the
// MSS and window-scale values the client announced in its SYN, because the
// stateless server discarded them:
//
//	+--------+--------+-----------------+
//	| 0xfd   | Length |    MSS value    |
//	+--------+--------+-----------------+
//	| Wscale | [timestamp, optional]    |
//	+--------+--------------------------+
//	| k solutions, l/8 bytes each ...   |
//	+-----------------------------------+
//	| NOP padding to 32-bit alignment   |
//	+-----------------------------------+
//
// When the standard TCP timestamps option is in use the challenge timestamp
// travels there and the embedded copy is omitted; otherwise both blocks
// carry the 4-byte timestamp (paper §5). Option blocks are padded with NOP
// (0x01) options so the options area stays 32-bit aligned.
//
// Parsing a solution block requires the current difficulty parameters
// (k, l): the server is stateless, so it interprets incoming solutions
// against its presently configured sysctl values.
package tcpopt
