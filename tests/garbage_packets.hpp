// Adversarial packet streams shared by the fuzz and differential suites.
//
// Both modes draw from a tiny tuple pool (16 internal hosts, 16 external
// hosts, 8 ports each side) with strictly increasing timestamps, so table
// collisions, retransmission edges, duplicate ACKs and sequence
// wraparounds all fire constantly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/packet.hpp"
#include "common/random.hpp"

namespace dart::test {

enum class Garbage : std::uint8_t {
  /// Every field uniformly random. Random 32-bit seq/ack almost never pair
  /// up, so this tests survival and bookkeeping, not matching.
  kUniform,
  /// Each connection's two directions keep running sequence counters and
  /// mostly ACK what the other side has sent, with retransmissions, stale
  /// and bogus ACKs, pure ACKs and random SYN/FIN/RST mixed in. SEQ and ACK
  /// then meet on shared RT/PT rows and produce samples, so the order in
  /// which one packet's roles touch the tables is observable.
  kCoherent,
};

inline std::vector<PacketRecord> garbage(std::uint64_t seed, std::size_t count,
                                         Garbage mode = Garbage::kUniform) {
  Rng rng(seed);
  auto pick = [&rng](std::uint64_t hi) {
    return static_cast<std::uint32_t>(rng.uniform_int(0, hi));
  };
  auto random_tuple = [&] {
    FourTuple tuple;
    tuple.src_ip = Ipv4Addr{pick(15) | 0x0A080000};
    tuple.dst_ip = Ipv4Addr{pick(15) | 0x17340000};
    tuple.src_port = static_cast<std::uint16_t>(pick(7));
    tuple.dst_port = static_cast<std::uint16_t>(pick(7));
    return tuple;
  };

  // Coherent mode: 48 connections from the same pool, each with its
  // outbound [0] and inbound [1] next-sequence counters. Random initial
  // sequence numbers put some counters near the 2^32 wrap.
  struct Connection {
    FourTuple outbound;
    SeqNum next[2];
  };
  std::vector<Connection> connections;
  if (mode == Garbage::kCoherent) {
    for (int i = 0; i < 48; ++i) {
      connections.push_back({random_tuple(),
                             {static_cast<SeqNum>(rng.next_u64()),
                              static_cast<SeqNum>(rng.next_u64())}});
    }
  }

  std::vector<PacketRecord> packets;
  packets.reserve(count);
  Timestamp ts = 0;
  for (std::size_t i = 0; i < count; ++i) {
    PacketRecord p;
    ts += rng.uniform_int(mode == Garbage::kUniform ? 0 : 1, 100000);
    p.ts = ts;
    if (mode == Garbage::kUniform) {
      p.tuple = random_tuple();
      p.seq = static_cast<SeqNum>(rng.next_u64());
      p.ack = static_cast<SeqNum>(rng.next_u64());
      p.payload = static_cast<std::uint16_t>(pick(65535));
      p.flags = static_cast<std::uint8_t>(pick(255));
      p.outbound = rng.bernoulli(0.5);
      packets.push_back(p);
      continue;
    }
    Connection& conn = connections[pick(47)];
    p.outbound = rng.bernoulli(0.5);
    const int dir = p.outbound ? 0 : 1;
    p.tuple = p.outbound ? conn.outbound : conn.outbound.reversed();
    // 30% pure ACKs, the rest up to one MSS of data.
    p.payload =
        static_cast<std::uint16_t>(rng.bernoulli(0.3) ? 0 : pick(1459) + 1);
    p.flags = rng.bernoulli(0.9) ? tcp_flag::kAck : 0;
    if (rng.bernoulli(0.02)) p.flags |= tcp_flag::kSyn;
    if (rng.bernoulli(0.02)) p.flags |= tcp_flag::kFin;
    if (rng.bernoulli(0.01)) p.flags |= tcp_flag::kRst;
    if (rng.bernoulli(0.1)) {
      p.seq = conn.next[dir] - pick(3000);  // retransmission
    } else {
      p.seq = conn.next[dir];
      conn.next[dir] += p.seq_span();
    }
    // 80% cumulative ACKs of everything the peer sent, 10% stale, 10%
    // bogus (optimistic or from nowhere).
    const double shape = rng.uniform();
    p.ack = conn.next[1 - dir];
    if (shape >= 0.9) {
      p.ack = static_cast<SeqNum>(rng.next_u64());
    } else if (shape >= 0.8) {
      p.ack -= pick(3000);
    }
    packets.push_back(p);
  }
  return packets;
}

}  // namespace dart::test
