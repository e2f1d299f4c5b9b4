// ChunkedOutput — where a JSON exporter (chrome_trace.h, metrics.h) puts
// its text (docs/OBSERVABILITY.md). Without a sink the text is the whole
// document, returned as one string. With one, the exporter hands the sink
// its text each time it holds kChunkBytes, at an entry's end, so writing a
// file holds one chunk instead of the document.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

namespace nsflow::obs {

/// Takes an exporter's text piece by piece, in document order.
using ChunkSink = std::function<void(std::string_view)>;

class ChunkedOutput {
 public:
  /// A chunk is this much text plus the rest of the entry that crossed it.
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

  /// Keeps the whole document in text().
  ChunkedOutput() = default;
  /// Hands the document to `sink`, which must outlive this.
  explicit ChunkedOutput(const ChunkSink& sink) : sink_(&sink) {
    text_.reserve(kChunkBytes + kChunkBytes / 8);
  }

  std::string& text() { return text_; }

  /// Called at an entry's end: hands the text to the sink once it holds a
  /// chunk.
  void EntryDone() {
    if (sink_ != nullptr && text_.size() >= kChunkBytes) {
      Flush();
    }
  }
  /// Called at the document's end: hands the sink what is left.
  void Finish() {
    if (sink_ != nullptr && !text_.empty()) {
      Flush();
    }
  }

 private:
  void Flush() {
    (*sink_)(text_);
    text_.clear();
  }

  const ChunkSink* sink_ = nullptr;
  std::string text_;
};

}  // namespace nsflow::obs
