// Fixture: unjustified-allow — every suppression marker must say why the
// checker is wrong on that line, and must name a rule that exists. A bare
// allow() is an unreviewable "trust me"; a typo'd rule name suppresses
// nothing while looking like it does.
#pragma once

namespace fixture_allow {

inline int helper() { return 0; }

inline void cases() {
  // BAD: no justification after the marker.
  helper();  // daosim-lint: allow(wall-clock)  // EXPECT-LINT: unjustified-allow

  // BAD: analyzer markers are held to the same standard.
  helper();  // daosim-check: allow(ref-across-suspend)  // EXPECT-LINT: unjustified-allow

  // BAD: unknown rule name — the marker suppresses nothing. (The justification
  // is present, so only the unknown-name arm fires.)
  helper();  // daosim-lint: allow(no-such-rule): reason text  // EXPECT-LINT: unjustified-allow

  // BAD: rules deleted once the compiler took over their invariant (see
  // tests/compile_fail/). A stale suppression naming one fails here instead
  // of lingering.
  helper();  // daosim-lint: allow(raw-rpc-call): the wrapper itself  // EXPECT-LINT: unjustified-allow
  helper();  // daosim-lint: allow(untracked-metric): a scratch node  // EXPECT-LINT: unjustified-allow
  helper();  // daosim-lint: allow(orphan-span): a fixed test triple  // EXPECT-LINT: unjustified-allow

  // BAD: empty rule list.
  helper();  // daosim-lint: allow(): forgot the rule  // EXPECT-LINT: unjustified-allow

  // GOOD: justified line marker, real rule.
  helper();  // daosim-lint: allow(wall-clock): fixture text, not a real clock read

  // GOOD: justified analyzer marker.
  helper();  // daosim-check: allow(guard-across-suspend): fixture text, no real guard here
}

}  // namespace fixture_allow
