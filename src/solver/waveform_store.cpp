#include "solver/waveform_store.hpp"

#include <bit>
#include <cstdio>
#include <cstring>

#include "la/error.hpp"

#ifdef __unix__
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace matex::solver {
namespace {

// The store is specified little-endian (docs/FORMATS.md); scalars are
// memcpy'd raw, so a big-endian port would need byte swaps here.
static_assert(std::endian::native == std::endian::little,
              "waveform store I/O assumes a little-endian host");

constexpr unsigned char kFileMagic[8] = {'M', 'A', 'T', 'E',
                                         'X', 'W', 'F', '1'};
constexpr std::uint32_t kChunkMagic = 0x4B4E4843;    // "CHNK"
constexpr std::uint32_t kFooterMagic = 0x58444946;   // "FIDX"
constexpr std::uint32_t kTrailerMagic = 0x54464D57;  // "MWFT"
constexpr std::uint64_t kHeaderBytes = 16;
constexpr std::uint64_t kChunkHeaderBytes = 48;
constexpr std::uint64_t kIndexEntryBytes = 24;
constexpr std::uint64_t kTrailerBytes = 16;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

std::uint64_t align8(std::uint64_t v) { return (v + 7) & ~std::uint64_t{7}; }

template <typename T>
void put(std::vector<unsigned char>& buf, T v) {
  const std::size_t at = buf.size();
  buf.resize(at + sizeof(T));
  std::memcpy(buf.data() + at, &v, sizeof(T));
}

template <typename T>
T get(const unsigned char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

/// Decoded chunk header fields plus derived layout, validated for
/// in-bounds self-consistency (not yet checksummed).
struct ChunkLayout {
  std::uint32_t scenario_index;
  std::uint64_t fingerprint;
  std::uint32_t name_bytes;
  std::uint32_t probe_count;
  std::uint64_t sample_count;
  std::uint64_t payload_bytes;
  std::uint64_t checksum;
};

/// Parses and bounds-checks the chunk header at `offset`; returns false
/// when the bytes cannot be a valid chunk (wrong magic, sizes that do not
/// fit the file, misaligned payload).
bool read_chunk_header(const unsigned char* data, std::size_t size,
                       std::uint64_t offset, ChunkLayout* out) {
  if (offset % 8 != 0 || offset + kChunkHeaderBytes > size) return false;
  const unsigned char* p = data + offset;
  if (get<std::uint32_t>(p) != kChunkMagic) return false;
  out->scenario_index = get<std::uint32_t>(p + 4);
  out->fingerprint = get<std::uint64_t>(p + 8);
  out->name_bytes = get<std::uint32_t>(p + 16);
  out->probe_count = get<std::uint32_t>(p + 20);
  out->sample_count = get<std::uint64_t>(p + 24);
  out->payload_bytes = get<std::uint64_t>(p + 32);
  out->checksum = get<std::uint64_t>(p + 40);
  if (out->payload_bytes % 8 != 0) return false;
  if (out->payload_bytes > size - offset - kChunkHeaderBytes) return false;
  return true;
}

/// Decodes the payload into a chunk view. Returns false on checksum or
/// internal-layout mismatch (the caller counts it as corrupt).
bool decode_chunk(const unsigned char* data, std::uint64_t offset,
                  const ChunkLayout& h, WaveformStoreChunk* out) {
  const unsigned char* payload = data + offset + kChunkHeaderBytes;
  std::uint64_t sum = kFnvOffset;
  fnv_bytes(sum, payload, h.payload_bytes);
  if (sum != h.checksum) return false;

  std::uint64_t pos = 0;
  const auto take = [&](std::uint64_t bytes,
                        const unsigned char** view) -> bool {
    if (bytes > h.payload_bytes - pos) return false;
    *view = payload + pos;
    pos += bytes;
    return true;
  };
  const unsigned char* view = nullptr;
  if (!take(h.name_bytes, &view)) return false;
  out->name.assign(reinterpret_cast<const char*>(view), h.name_bytes);
  out->probe_names.clear();
  out->probe_names.reserve(h.probe_count);
  for (std::uint32_t i = 0; i < h.probe_count; ++i) {
    if (!take(4, &view)) return false;
    const std::uint32_t len = get<std::uint32_t>(view);
    if (!take(len, &view)) return false;
    out->probe_names.emplace_back(reinterpret_cast<const char*>(view), len);
  }
  pos = align8(pos);
  const std::uint64_t doubles =
      h.sample_count * (1 + std::uint64_t{h.probe_count});
  if (h.sample_count != 0 && doubles / h.sample_count !=
                                 1 + std::uint64_t{h.probe_count})
    return false;  // multiplication overflow
  if (h.payload_bytes - pos != doubles * 8) return false;

  // Zero-copy views into the mapping. The f64 sections start 8-aligned
  // by construction (chunk start and payload padding), so the pointer
  // reinterpretation is alignment-safe.
  const double* f64 = reinterpret_cast<const double*>(payload + pos);
  out->scenario_index = h.scenario_index;
  out->fingerprint = h.fingerprint;
  out->times = std::span<const double>(f64, h.sample_count);
  out->columns.clear();
  out->columns.reserve(h.probe_count);
  for (std::uint32_t p = 0; p < h.probe_count; ++p)
    out->columns.emplace_back(f64 + (1 + std::uint64_t{p}) * h.sample_count,
                              h.sample_count);
  return true;
}

}  // namespace

WaveformTable WaveformStoreChunk::to_table() const {
  WaveformTable table;
  table.names = probe_names;
  table.times.assign(times.begin(), times.end());
  table.columns.reserve(columns.size());
  for (const std::span<const double>& c : columns)
    table.columns.emplace_back(c.begin(), c.end());
  return table;
}

// ----------------------------------------------------------------- writer

WaveformStoreWriter::WaveformStoreWriter(const std::string& path)
    : path_(path), file_(std::fopen(path.c_str(), "wb")) {
  if (!file_)
    throw Error("waveform store: cannot create " + path_);
  std::vector<unsigned char> header;
  header.insert(header.end(), kFileMagic, kFileMagic + 8);
  put<std::uint32_t>(header, kWaveformStoreVersion);
  put<std::uint32_t>(header, static_cast<std::uint32_t>(kHeaderBytes));
  write_raw(header.data(), header.size());
}

WaveformStoreWriter::~WaveformStoreWriter() {
  try {
    close();
    // matex-lint: allow(catch-all): a destructor must not throw; callers
    // that care about close() failures call close() explicitly first.
  } catch (...) {
  }
}

void WaveformStoreWriter::write_raw(const void* data, std::size_t bytes) {
  if (bytes == 0) return;
  if (std::fwrite(data, 1, bytes, file_) != bytes)
    throw Error("waveform store: write failed for " + path_);
  offset_ += bytes;
}

void WaveformStoreWriter::pad_to_alignment() {
  static constexpr unsigned char kZeros[8] = {};
  const std::uint64_t pad = align8(offset_) - offset_;
  write_raw(kZeros, static_cast<std::size_t>(pad));
}

void WaveformStoreWriter::append(
    std::uint32_t scenario_index, std::uint64_t fingerprint,
    std::string_view name, std::span<const std::string> probe_names,
    std::span<const double> times,
    std::span<const std::vector<double>> columns) {
  MATEX_CHECK(file_ != nullptr, "append after close()");
  MATEX_CHECK(columns.size() == probe_names.size(),
              "one waveform column per probe name");
  for (const std::vector<double>& c : columns)
    MATEX_CHECK(c.size() == times.size(),
                "every column matches the time axis");

  // String section (name + probe names), padded so the f64 section that
  // follows it starts 8-aligned in the file.
  std::vector<unsigned char> strings;
  strings.insert(strings.end(), name.begin(), name.end());
  for (const std::string& p : probe_names) {
    put<std::uint32_t>(strings, static_cast<std::uint32_t>(p.size()));
    strings.insert(strings.end(), p.begin(), p.end());
  }
  strings.resize(static_cast<std::size_t>(align8(strings.size())), 0);

  const std::uint64_t doubles =
      times.size() * (1 + std::uint64_t{columns.size()});
  const std::uint64_t payload_bytes = strings.size() + doubles * 8;

  std::uint64_t sum = kFnvOffset;
  fnv_bytes(sum, strings.data(), strings.size());
  fnv_bytes(sum, times.data(), times.size() * 8);
  for (const std::vector<double>& c : columns)
    fnv_bytes(sum, c.data(), c.size() * 8);

  std::vector<unsigned char> header;
  // Sized up front: the 48-byte chunk header then needs no reallocation,
  // and GCC 12 stops flagging put()'s resize with -Wstringop-overflow.
  header.reserve(48);
  put<std::uint32_t>(header, kChunkMagic);
  put<std::uint32_t>(header, scenario_index);
  put<std::uint64_t>(header, fingerprint);
  put<std::uint32_t>(header, static_cast<std::uint32_t>(name.size()));
  put<std::uint32_t>(header, static_cast<std::uint32_t>(probe_names.size()));
  put<std::uint64_t>(header, static_cast<std::uint64_t>(times.size()));
  put<std::uint64_t>(header, payload_bytes);
  put<std::uint64_t>(header, sum);

  const std::uint64_t chunk_offset = offset_;
  write_raw(header.data(), header.size());
  write_raw(strings.data(), strings.size());
  write_raw(times.data(), times.size() * 8);
  for (const std::vector<double>& c : columns)
    write_raw(c.data(), c.size() * 8);
  // One flush per chunk, mirroring the checkpoint journal: a crash
  // truncates at most the chunk being written.
  if (std::fflush(file_) != 0)
    throw Error("waveform store: flush failed for " + path_);
  index_.push_back({chunk_offset, fingerprint, scenario_index});
}

void WaveformStoreWriter::close() {
  if (!file_) return;
  std::vector<unsigned char> footer;
  put<std::uint32_t>(footer, kFooterMagic);
  put<std::uint32_t>(footer, static_cast<std::uint32_t>(index_.size()));
  std::uint64_t sum = kFnvOffset;
  {
    std::vector<unsigned char> entries;
    for (const IndexEntry& e : index_) {
      put<std::uint64_t>(entries, e.offset);
      put<std::uint64_t>(entries, e.fingerprint);
      put<std::uint32_t>(entries, e.scenario_index);
      put<std::uint32_t>(entries, 0);  // reserved
    }
    fnv_bytes(sum, entries.data(), entries.size());
    footer.insert(footer.end(), entries.begin(), entries.end());
  }
  put<std::uint64_t>(footer, sum);
  // Trailer: fixed 16 bytes at EOF so a reader can find the footer.
  const std::uint64_t footer_offset = offset_;
  put<std::uint64_t>(footer, footer_offset);
  put<std::uint32_t>(footer, kTrailerMagic);
  put<std::uint32_t>(footer, static_cast<std::uint32_t>(index_.size()));
  write_raw(footer.data(), footer.size());

  std::FILE* f = file_;
  file_ = nullptr;
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!flushed || !closed)
    throw Error("waveform store: close failed for " + path_);
}

// ----------------------------------------------------------------- reader

WaveformStoreReader::WaveformStoreReader(const std::string& path) {
#ifdef __unix__
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw Error("waveform store: cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw Error("waveform store: cannot stat " + path);
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ > 0) {
    void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) mapping_ = map;
  }
  if (!mapping_ && size_ > 0) {
    // mmap can fail on special files; fall back to a heap copy.
    copy_.resize(size_);
    std::size_t got = 0;
    while (got < size_) {
      const ssize_t n = ::read(fd, copy_.data() + got, size_ - got);
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    if (got != size_) {
      ::close(fd);
      throw Error("waveform store: short read of " + path);
    }
  }
  ::close(fd);
#else
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw Error("waveform store: cannot open " + path);
  std::fseek(f, 0, SEEK_END);
  const long end = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  size_ = end > 0 ? static_cast<std::size_t>(end) : 0;
  copy_.resize(size_);
  const std::size_t got = std::fread(copy_.data(), 1, size_, f);
  std::fclose(f);
  if (got != size_) throw Error("waveform store: short read of " + path);
#endif

  const unsigned char* base = data();
  if (size_ < kHeaderBytes ||
      std::memcmp(base, kFileMagic, sizeof(kFileMagic)) != 0)
    throw ParseError("waveform store: " + path +
                     " is not a MATEX waveform store");
  const std::uint32_t version = get<std::uint32_t>(base + 8);
  if (version > kWaveformStoreVersion)
    throw ParseError("waveform store: " + path + " has version " +
                     std::to_string(version) + " > supported " +
                     std::to_string(kWaveformStoreVersion));

  // Fast path: a valid trailer + footer index. Any inconsistency falls
  // through to the sequential recovery scan instead of failing.
  bool have_index = false;
  std::vector<std::uint64_t> offsets;
  if (size_ >= kHeaderBytes + kTrailerBytes) {
    const unsigned char* trailer = base + size_ - kTrailerBytes;
    const std::uint64_t footer_offset = get<std::uint64_t>(trailer);
    const std::uint32_t trailer_magic = get<std::uint32_t>(trailer + 8);
    const std::uint64_t count = get<std::uint32_t>(trailer + 12);
    const std::uint64_t footer_bytes = 8 + count * kIndexEntryBytes + 8;
    if (trailer_magic == kTrailerMagic &&
        footer_offset >= kHeaderBytes && footer_offset % 8 == 0 &&
        footer_offset + footer_bytes == size_ - kTrailerBytes &&
        get<std::uint32_t>(base + footer_offset) == kFooterMagic &&
        get<std::uint32_t>(base + footer_offset + 4) == count) {
      const unsigned char* entries = base + footer_offset + 8;
      std::uint64_t sum = kFnvOffset;
      fnv_bytes(sum, entries, count * kIndexEntryBytes);
      if (sum == get<std::uint64_t>(entries + count * kIndexEntryBytes)) {
        offsets.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i)
          offsets.push_back(
              get<std::uint64_t>(entries + i * kIndexEntryBytes));
        have_index = true;
      }
    }
  }

  if (have_index) {
    for (const std::uint64_t offset : offsets) {
      ChunkLayout h{};
      WaveformStoreChunk chunk;
      if (read_chunk_header(base, size_, offset, &h) &&
          decode_chunk(base, offset, h, &chunk)) {
        chunks_.push_back(std::move(chunk));
      } else {
        ++corrupt_chunks_;
      }
    }
    return;
  }

  // Recovery scan: walk chunk-to-chunk from the header. Stops cleanly at
  // the first non-chunk bytes (a footer without a trailer, or garbage);
  // a chunk whose header is consistent but whose payload fails the
  // checksum is skipped and the walk continues behind it.
  recovered_by_scan_ = true;
  std::uint64_t pos = kHeaderBytes;
  while (pos + kChunkHeaderBytes <= size_) {
    ChunkLayout h{};
    if (!read_chunk_header(base, size_, pos, &h)) {
      // Either the footer of an interrupted close(), or a truncated /
      // garbled header: nothing past it can be trusted.
      if (pos + 4 <= size_ && get<std::uint32_t>(base + pos) != kFooterMagic)
        ++corrupt_chunks_;
      break;
    }
    WaveformStoreChunk chunk;
    if (decode_chunk(base, pos, h, &chunk))
      chunks_.push_back(std::move(chunk));
    else
      ++corrupt_chunks_;
    pos += kChunkHeaderBytes + h.payload_bytes;
  }
}

WaveformStoreReader::~WaveformStoreReader() {
#ifdef __unix__
  if (mapping_) ::munmap(mapping_, size_);
#endif
}

const unsigned char* WaveformStoreReader::data() const {
  return mapping_ ? static_cast<const unsigned char*>(mapping_)
                  : copy_.data();
}

}  // namespace matex::solver
