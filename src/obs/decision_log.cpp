#include "obs/decision_log.hpp"

#include <sstream>

#include "util/artifact_writer.hpp"

namespace wsched::obs {

namespace {

/// "node:score|node:score|..." with "%d:%.4f" per candidate.
void write_candidates(ArtifactWriter& out, const ScoredCandidate* cands,
                      std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) {
    if (i > 0) out.raw('|');
    out.integer(cands[i].node).raw(':').fixed4(cands[i].cost);
  }
}

}  // namespace

std::string DecisionLog::candidates_of(const DecisionRecord& rec) const {
  std::ostringstream joined;
  {
    ArtifactWriter out(joined);
    write_candidates(out, candidates_begin(rec), rec.cand_count);
  }
  return joined.str();
}

void DecisionLog::write_csv(std::ostream& stream) const {
  if (records_.empty()) return;
  ArtifactWriter out(stream);
  out.raw("seq,t_s,class,receiver,chosen,remote,w,reason,stale_s,w_hat,"
          "theta_eff,");
  if (gray_) out.raw("slow_penalty,hedged,");
  out.raw("candidates\n");
  for (const DecisionRecord& record : records_) {
    out.integer(static_cast<std::int64_t>(record.seq))
        .raw(',')
        .number(to_seconds(record.at))
        .raw(record.dynamic ? ",dynamic," : ",static,")
        .integer(record.receiver)
        .raw(',')
        .integer(record.chosen)
        .raw(record.remote ? ",1," : ",0,")
        .number(record.w)
        .raw(',')
        .csv_field(record.reason)
        .raw(',')
        .number(record.stale_s)
        .raw(',')
        .number(record.w_hat)
        .raw(',')
        .number(record.theta_eff)
        .raw(',');
    if (gray_)
      out.number(record.slow_penalty).raw(record.hedged ? ",1," : ",0,");
    // Candidate cells hold only digits, ':', '.', '|', '-' and letters:
    // never a character that needs CSV quoting.
    write_candidates(out, candidates_begin(record), record.cand_count);
    out.raw('\n');
  }
}

void DecisionLog::write_csv_file(const std::string& path) const {
  write_artifact_file(path, "decision log",
                      [this](std::ostream& out) { write_csv(out); });
}

}  // namespace wsched::obs
