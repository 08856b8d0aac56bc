#include "pool/svc_cmd.hpp"

#include <concepts>
#include <initializer_list>
#include <sstream>
#include <tuple>
#include <utility>

namespace daosim::pool {

namespace {

// Each command's arguments in wire order: the one place that names them.
auto fields(ContCreate& c) { return std::tie(c.cont, c.props); }
auto fields(ContOpen& c) { return std::tie(c.cont); }
auto fields(ContDestroy& c) { return std::tie(c.cont); }
auto fields(AllocOids& c) { return std::tie(c.cont, c.count); }
auto fields(ListConts&) { return std::tie(); }
auto fields(PoolEvict& c) { return std::tie(c.engine); }
auto fields(PoolReint& c) { return std::tie(c.engine); }
auto fields(RebuildDone& c) { return std::tie(c.engine, c.version); }
auto fields(SnapCreate& c) { return std::tie(c.cont, c.epoch); }
auto fields(SnapDestroy& c) { return std::tie(c.cont, c.epoch); }
auto fields(SnapList& c) { return std::tie(c.cont); }

/// A counted list on the wire: "<n> <item> ...".
template <typename C>
concept Collection = requires(C c) { c.insert(c.end(), typename C::value_type{}); };

// Writers: each emits " <token>..." for one value.
template <std::integral T>
void put(std::ostream& os, T v) {
  os << ' ' << +v;  // unary + prints an 8-bit oclass as a number
}
template <Collection C>
void put(std::ostream& os, const C& c);

void put(std::ostream& os, const vos::Uuid& u) {
  put(os, u.hi);
  put(os, u.lo);
}
void put(std::ostream& os, const ContProps& p) {
  put(os, p.chunk_size);
  put(os, p.oclass);
}
void put(std::ostream&, const Ack&) {}
void put(std::ostream& os, RebuildAck a) {
  if (a == RebuildAck::dup) os << " dup";
  if (a == RebuildAck::stale) os << " stale";
}
template <Collection C>
void put(std::ostream& os, const C& c) {
  put(os, c.size());
  for (const auto& x : c) put(os, x);
}

// Readers: the inverse of put; false on a missing or malformed token.
template <std::integral T>
bool get(std::istream& is, T& v) {
  if constexpr (sizeof(T) == 1) {
    unsigned wide = 0;
    if (!(is >> wide) || wide > 0xFF) return false;
    v = T(wide);
    return true;
  } else {
    return bool(is >> v);
  }
}
template <Collection C>
bool get(std::istream& is, C& c);

bool get(std::istream& is, vos::Uuid& u) { return get(is, u.hi) && get(is, u.lo); }
bool get(std::istream& is, ContProps& p) { return get(is, p.chunk_size) && get(is, p.oclass); }
bool get(std::istream&, Ack&) { return true; }
bool get(std::istream& is, RebuildAck& a) {
  std::string word;
  if (!(is >> word)) {
    is.clear();  // a bare "ok": the report counted
    a = RebuildAck::done;
    return true;
  }
  if (word == "dup") a = RebuildAck::dup;
  else if (word == "stale") a = RebuildAck::stale;
  else return false;
  return true;
}
template <Collection C>
bool get(std::istream& is, C& c) {
  std::size_t n = 0;
  if (!get(is, n)) return false;
  for (std::size_t i = 0; i < n; ++i) {
    typename C::value_type x{};
    if (!get(is, x)) return false;
    c.insert(c.end(), x);
  }
  return true;
}

bool at_end(std::istream& is) {
  is >> std::ws;
  return is.eof();
}

template <typename Cmd>
Result<SvcCmd> read_cmd(std::istream& is) {
  Cmd cmd;
  const bool ok = std::apply([&is](auto&... f) { return (get(is, f) && ...); }, fields(cmd));
  if (!ok || !at_end(is)) return Errno::invalid;
  return SvcCmd{cmd};
}

}  // namespace

std::string encode(const SvcCmd& cmd) {
  std::ostringstream os;
  std::visit(
      [&os](auto c) {
        os << c.kOp;
        std::apply([&os](const auto&... f) { (put(os, f), ...); }, fields(c));
      },
      cmd);
  return os.str();
}

Result<SvcCmd> decode(std::string_view text) {
  std::istringstream is{std::string(text)};
  std::string op;
  is >> op;
  // Try each alternative's op name in turn; the first match parses the rest.
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    Result<SvcCmd> out = Errno::invalid;
    (void)((std::variant_alternative_t<I, SvcCmd>::kOp == op &&
            (out = read_cmd<std::variant_alternative_t<I, SvcCmd>>(is), true)) ||
           ...);
    return out;
  }(std::make_index_sequence<std::variant_size_v<SvcCmd>>{});
}

template <typename R>
std::string encode_reply(const Result<R>& reply) {
  if (!reply.ok()) return errno_name(reply.error());
  std::ostringstream os;
  os << "ok";
  put(os, *reply);
  return os.str();
}

template <typename R>
Result<R> decode_reply(std::string_view text) {
  std::istringstream is{std::string(text)};
  std::string status;
  is >> status;
  if (status != "ok") {
    for (const Errno e : {Errno::no_entry, Errno::exists, Errno::invalid}) {
      if (status == errno_name(e)) return e;
    }
    return Errno::io;
  }
  R value{};
  if (!get(is, value) || !at_end(is)) return Errno::io;
  return value;
}

// One instantiation per reply type a command names.
#define DAOSIM_REPLY_CODEC(R)                                \
  template std::string encode_reply<R>(const Result<R>&); \
  template Result<R> decode_reply<R>(std::string_view);
DAOSIM_REPLY_CODEC(Ack)
DAOSIM_REPLY_CODEC(ContProps)
DAOSIM_REPLY_CODEC(std::uint64_t)
DAOSIM_REPLY_CODEC(std::uint32_t)
DAOSIM_REPLY_CODEC(std::vector<vos::Uuid>)
DAOSIM_REPLY_CODEC(std::vector<vos::Epoch>)
DAOSIM_REPLY_CODEC(RebuildAck)
#undef DAOSIM_REPLY_CODEC

}  // namespace daosim::pool
