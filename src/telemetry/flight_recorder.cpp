#include "telemetry/flight_recorder.hpp"

#include <cstdio>
#include <fstream>
#include <utility>

#include "common/escape.hpp"

namespace kvscale {

namespace {

std::string JsonMicros(double us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  return buf;
}

std::string JsonBool(bool b) { return b ? "true" : "false"; }

}  // namespace

bool IsDegraded(const QueryRecord& record) {
  return record.shed_by_admission || record.partial || record.failed > 0;
}

std::string QueryRecordToJson(const QueryRecord& record) {
  std::string out = "{\"query_id\":" + std::to_string(record.query_id);
  out += ",\"table\":" + JsonQuote(record.table);
  out += ",\"transport\":" + JsonQuote(record.transport);
  out += ",\"query_kind\":" + JsonQuote(record.query_kind);
  out += ",\"subqueries\":" + std::to_string(record.subqueries);
  out += ",\"completed\":" + std::to_string(record.completed);
  out += ",\"failed\":" + std::to_string(record.failed);
  out += ",\"retries\":" + std::to_string(record.retries);
  out += ",\"hedged\":" + std::to_string(record.hedged);
  out += ",\"partial\":" + JsonBool(record.partial);
  out += ",\"shed_by_admission\":" + JsonBool(record.shed_by_admission);
  out += ",\"slow\":" + JsonBool(record.slow);
  out += ",\"admission_wait_us\":" + JsonMicros(record.admission_wait_us);
  out += ",\"queue_wait_us\":" + JsonMicros(record.queue_wait_us);
  out += ",\"virtual_latency_us\":" + JsonMicros(record.virtual_latency_us);
  out += ",\"wall_us\":" + JsonMicros(record.wall_us);
  out += ",\"wire_bytes_sent\":" + std::to_string(record.wire_bytes_sent);
  out += ",\"wire_bytes_received\":" +
         std::to_string(record.wire_bytes_received);
  out += ",\"wire_frames_sent\":" + std::to_string(record.wire_frames_sent);
  out += ",\"wire_frames_received\":" +
         std::to_string(record.wire_frames_received);
  out += ",\"ring_epoch\":" + std::to_string(record.ring_epoch);
  out += ",\"timeline\":[";
  for (size_t i = 0; i < record.timeline.size(); ++i) {
    const RequestTrace& entry = record.timeline[i];
    if (i > 0) out += ',';
    out += "{\"sub_id\":" + std::to_string(entry.sub_id);
    out += ",\"node\":" + std::to_string(entry.node);
    out += ",\"attempts\":" + std::to_string(entry.attempts);
    out += ",\"completed\":" + JsonBool(entry.answered);
    out += ",\"issued_us\":" + JsonMicros(entry.issued);
    out += ",\"received_us\":" + JsonMicros(entry.received);
    out += ",\"db_start_us\":" + JsonMicros(entry.db_start);
    out += ",\"db_end_us\":" + JsonMicros(entry.db_end);
    out += ",\"reply_encoded_us\":" + JsonMicros(entry.reply_encoded);
    out += ",\"reply_dequeued_us\":" + JsonMicros(entry.reply_dequeued);
    out += ",\"reply_decoded_us\":" + JsonMicros(entry.reply_decoded);
    out += ",\"completed_us\":" + JsonMicros(entry.completed);
    out += '}';
  }
  out += "]}";
  return out;
}

FlightRecorder::FlightRecorder() : FlightRecorder(Options()) {}

FlightRecorder::FlightRecorder(Options options)
    : options_(std::move(options)) {}

void FlightRecorder::Record(QueryRecord record) {
  const bool slow =
      options_.slow_query_us > 0.0 &&
      (record.wall_us >= options_.slow_query_us || IsDegraded(record));
  record.slow = slow;
  std::string line;
  if (slow) line = QueryRecordToJson(record) + "\n";
  {
    MutexLock lock(mu_);
    ++recorded_;
    ring_.push_back(std::move(record));
    while (options_.capacity > 0 && ring_.size() > options_.capacity) {
      ring_.pop_front();
      ++evicted_;
    }
    if (slow) {
      ++slow_;
      slow_log_ += line;
      if (!options_.slow_log_path.empty()) {
        // Best-effort append: the in-memory log is authoritative, the
        // file is a convenience tail target.
        std::ofstream file(options_.slow_log_path, std::ios::app);
        if (file) file << line;
      }
    }
  }
}

size_t FlightRecorder::size() const {
  MutexLock lock(mu_);
  return ring_.size();
}

uint64_t FlightRecorder::recorded() const {
  MutexLock lock(mu_);
  return recorded_;
}

uint64_t FlightRecorder::evicted() const {
  MutexLock lock(mu_);
  return evicted_;
}

uint64_t FlightRecorder::slow_queries() const {
  MutexLock lock(mu_);
  return slow_;
}

std::vector<QueryRecord> FlightRecorder::snapshot() const {
  MutexLock lock(mu_);
  return std::vector<QueryRecord>(ring_.begin(), ring_.end());
}

std::string FlightRecorder::ToJsonl() const {
  std::string out;
  for (const QueryRecord& record : snapshot()) {
    out += QueryRecordToJson(record) + "\n";
  }
  return out;
}

std::string FlightRecorder::SlowQueriesJsonl() const {
  MutexLock lock(mu_);
  return slow_log_;
}

Status FlightRecorder::WriteJsonl(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return Status::Unavailable("cannot open " + path);
  file << ToJsonl();
  return file.good() ? Status::Ok()
                     : Status::Unavailable("write failed: " + path);
}

void FlightRecorder::Clear() {
  MutexLock lock(mu_);
  ring_.clear();
  slow_log_.clear();
  recorded_ = 0;
  evicted_ = 0;
  slow_ = 0;
}

}  // namespace kvscale
