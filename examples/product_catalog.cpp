// Product-catalog validation — the scenario from the paper's
// introduction: sales records from distributors carry product fields that
// must match the enterprise's Product reference relation.
//
// Demonstrates two extensions:
//   - column weights (Section 5.2): the part-number column is boosted, so
//     agreement on it dominates noisy description text;
//   - token transpositions (Section 5.3): reordered description tokens
//     ("cable hdmi 2m" vs "hdmi cable 2m") stay cheap.

#include <cstdio>

#include "core/fuzzy_match.h"
#include "common/string_util.h"
#include "common/random.h"
#include "obs/metrics.h"

using namespace fuzzymatch;

namespace {

// A small synthetic product catalog: part number + description.
std::vector<Row> MakeCatalog() {
  std::vector<Row> rows;
  const char* kinds[] = {"cable", "adapter", "charger", "mount", "case"};
  const char* specs[] = {"hdmi", "usb c", "usb a", "vga", "displayport"};
  const char* extras[] = {"2m", "1m", "braided", "slim", "pro"};
  Rng rng(7);
  int part = 10000;
  for (const char* kind : kinds) {
    for (const char* spec : specs) {
      for (const char* extra : extras) {
        rows.push_back(Row{StringPrintf("PN-%05d", part++),
                           StringPrintf("%s %s %s", spec, kind, extra)});
      }
    }
  }
  return rows;
}

void Report(const char* label, const Row& input,
            const FuzzyMatcher& matcher) {
  auto matches = matcher.FindMatches(input);
  std::printf("%-34s", label);
  if (!matches.ok() || matches->empty()) {
    std::printf("-> no match\n");
    return;
  }
  auto row = matcher.GetReferenceTuple((*matches)[0].tid);
  std::printf("-> [%s | %s]  sim %.3f\n", (*row)[0]->c_str(),
              (*row)[1]->c_str(), (*matches)[0].similarity);
}

}  // namespace

int main() {
  auto db_or = Database::Open(DatabaseOptions{});
  if (!db_or.ok()) return 1;
  auto db = std::move(*db_or);
  auto table_or =
      db->CreateTable("products", Schema({"part_number", "description"}));
  if (!table_or.ok()) return 1;
  const auto catalog = MakeCatalog();
  for (const Row& row : catalog) {
    if (!(*table_or)->Insert(row).ok()) return 1;
  }
  std::printf("Product reference relation: %zu tuples\n\n", catalog.size());

  // Part numbers are near-unique identifiers: boost their column. The IDF
  // weights already make them important; the column weight adds the
  // domain knowledge that a part-number digit error matters even more.
  FuzzyMatchConfig config;
  config.eti.q = 3;
  config.eti.signature_size = 3;
  config.eti.index_tokens = true;
  config.matcher.fms.enable_transposition = true;
  config.matcher.fms.column_weights = {1.5, 1.0};
  auto matcher_or = FuzzyMatcher::Build(db.get(), "products", config);
  if (!matcher_or.ok()) {
    std::fprintf(stderr, "build: %s\n",
                 matcher_or.status().ToString().c_str());
    return 1;
  }
  const FuzzyMatcher& matcher = **matcher_or;

  // Incoming records are corruptions of real catalog rows, so the "right
  // answer" is known. catalog[i] has part number PN-(10000+i).
  auto corrupt = [&](size_t idx, auto&& fn) {
    Row dirty = catalog[idx];
    fn(dirty);
    return dirty;
  };

  std::printf("Incoming distributor records:\n");
  Report("exact record", catalog[0], matcher);
  Report("part-number typo (PN-10060)",
         corrupt(60, [](Row& r) { (*r[0])[4] = '9'; }), matcher);
  Report("reordered description (PN-10025)",
         corrupt(25,
                 [](Row& r) {
                   // "usb c cable 2m" -> "cable usb c 2m"
                   r[1] = "cable usb c 2m";
                 }),
         matcher);
  Report("missing part number (PN-10122)",
         corrupt(122, [](Row& r) { r[0] = std::nullopt; }), matcher);
  // PN-10047 is "displayport adapter braided": long tokens survive typos
  // because their q-gram signatures still overlap.
  Report("typos everywhere (PN-10047)", corrupt(47, [](Row& r) {
           (*r[0])[3] = 'O';         // PN-1O047
           r[1] = "displayporr adaptor braided";
         }),
         matcher);
  // Tokens no longer than q can only match exactly through the ETI (their
  // signature is the token itself) — 'vga' -> 'vguh' severs that column's
  // contribution entirely. The remaining columns still carry the match.
  Report("short-token typo (PN-10115)", corrupt(115, [](Row& r) {
           r[1] = "vguh case 2m";
         }),
         matcher);

  // Every query records its counters in the process-wide registry.
  auto& reg = obs::MetricsRegistry::Global();
  const uint64_t queries = reg.GetCounter("match.queries")->value();
  std::printf("\n%llu queries, %.2f reference fetches per query, OSC "
              "succeeded on %llu\n",
              static_cast<unsigned long long>(queries),
              static_cast<double>(
                  reg.GetCounter("match.ref_tuples_fetched")->value()) /
                  static_cast<double>(queries),
              static_cast<unsigned long long>(
                  reg.GetCounter("match.osc_succeeded")->value()));
  return 0;
}
