// Fixture: unbatched-extent-rpc — a loop that builds one ObjUpdateReq/
// ObjFetchReq per extent and serializes it with Body::make sends one RPC per
// extent, bypassing the client batcher. Collect the extents, coalesce them
// per (target, replica) and send each batch through DaosClient::call_credited.
#pragma once

namespace fixture {

struct ObjUpdateReq { int target; long offset, length; };
struct ObjFetchReq { int target; long offset, length; };
struct Body {
  static Body make(ObjUpdateReq r);
  static Body make(ObjFetchReq r);
};
void send(Body b);

inline void cases(long npieces) {
  for (long i = 0; i < npieces; ++i) {                    // EXPECT-LINT: unbatched-extent-rpc
    ObjUpdateReq req;
    req.offset = i * 4096;
    req.length = 4096;
    send(Body::make(req));
  }

  long j = 0;
  while (j < npieces) {                                   // EXPECT-LINT: unbatched-extent-rpc
    ObjFetchReq req{0, j * 4096, 4096};
    send(Body::make(req));
    ++j;
  }

  // GOOD: the loop only *builds* per-extent requests; serialization happens
  // once, outside, where the batcher can coalesce them.
  ObjUpdateReq batched;
  for (long i = 0; i < npieces; ++i) {
    batched.length += 4096;
  }
  send(Body::make(batched));

  // GOOD: a request declared outside the loop with per-iteration Body::make
  // is the replica fan-out of ONE extent, not a per-extent loop.
  ObjFetchReq fan{0, 0, 4096};
  for (long rep = 0; rep < 3; ++rep) {
    send(Body::make(fan));
  }

  // GOOD: the legacy A/B path may be suppressed explicitly.
  for (long i = 0; i < npieces; ++i) {  // daosim-lint: allow(unbatched-extent-rpc): fixture proves the suppression path
    ObjUpdateReq req{0, i * 4096, 4096};
    send(Body::make(req));
  }
}

}  // namespace fixture
