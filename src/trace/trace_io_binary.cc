#include "trace/trace_io_binary.hh"

#include <algorithm>
#include <fstream>
#include <istream>
#include <iterator>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string_view>

#include "common/log.hh"
#include "trace/trace_io.hh"

namespace prefsim
{

namespace
{

constexpr char kMagic[4] = {'P', 'F', 'S', '2'};

void
putVarint(std::string &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out += static_cast<char>((v & 0x7f) | 0x80);
        v >>= 7;
    }
    out += static_cast<char>(v);
}

/** Decoding cursor over the in-memory image of a binary trace. */
class ImageReader
{
  public:
    explicit ImageReader(std::string_view image)
        : p_(image.data()), end_(image.data() + image.size())
    {}

    std::size_t remaining() const
    {
        return static_cast<std::size_t>(end_ - p_);
    }

    /** The next byte, or -1 at the end of the image. */
    int
    byte()
    {
        return p_ == end_ ? -1 : static_cast<unsigned char>(*p_++);
    }

    std::uint64_t
    varint()
    {
        std::uint64_t v = 0;
        unsigned shift = 0;
        for (;;) {
            const int c = byte();
            if (c < 0)
                throw std::runtime_error("binary trace: truncated varint");
            v |= std::uint64_t{static_cast<unsigned>(c) & 0x7f} << shift;
            if ((c & 0x80) == 0)
                return v;
            shift += 7;
            if (shift >= 64)
                throw std::runtime_error("binary trace: varint overflow");
        }
    }

    /** The next @p n bytes; nullopt (nothing consumed) when fewer are
     *  left. */
    std::optional<std::string_view>
    bytes(std::size_t n)
    {
        if (n > remaining())
            return std::nullopt;
        const std::string_view out(p_, n);
        p_ += n;
        return out;
    }

  private:
    const char *p_;
    const char *end_;
};

/** Everything left in @p is, in one read when the stream can seek. */
std::string
readRest(std::istream &is)
{
    std::string image;
    const std::istream::pos_type here = is.tellg();
    if (here != std::istream::pos_type(-1) &&
        is.seekg(0, std::ios::end)) {
        const std::istream::pos_type end = is.tellg();
        is.seekg(here);
        if (end != std::istream::pos_type(-1) && end >= here) {
            image.resize(static_cast<std::size_t>(end - here));
            is.read(image.data(), static_cast<std::streamsize>(image.size()));
            image.resize(static_cast<std::size_t>(is.gcount()));
            return image;
        }
    }
    is.clear();
    image.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
    return image;
}

constexpr std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

} // namespace

void
writeTraceBinary(std::ostream &os, const ParallelTrace &trace)
{
    // The whole file is encoded in memory and written at once. Records
    // average under three bytes; the reserve covers the usual case.
    std::size_t records = 0;
    for (const auto &proc : trace.procs)
        records += proc.size();
    std::string image;
    image.reserve(64 + trace.name.size() + 3 * records);
    image.append(kMagic, sizeof(kMagic));
    putVarint(image, trace.numProcs());
    putVarint(image, trace.numLocks);
    putVarint(image, trace.numBarriers);
    putVarint(image, trace.name.size());
    image += trace.name;

    for (const auto &proc : trace.procs) {
        putVarint(image, proc.size());
        Addr prev = 0;
        for (const auto &r : proc.records()) {
            image += static_cast<char>(r.kind);
            switch (r.kind) {
              case RecordKind::Instr:
                putVarint(image, r.count);
                break;
              case RecordKind::Read:
              case RecordKind::Write:
              case RecordKind::Prefetch:
              case RecordKind::PrefetchExcl:
                // Deltas wrap modulo 2^64 (no signed overflow).
                putVarint(image, zigzag(static_cast<std::int64_t>(
                                     r.addr - prev)));
                prev = r.addr;
                break;
              case RecordKind::LockAcquire:
              case RecordKind::LockRelease:
              case RecordKind::Barrier:
                putVarint(image, r.sync);
                break;
            }
        }
    }
    os.write(image.data(), static_cast<std::streamsize>(image.size()));
}

void
writeTraceBinaryFile(const std::string &path, const ParallelTrace &trace)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        prefsim_fatal("cannot open trace file for writing: ", path);
    writeTraceBinary(os, trace);
    if (!os)
        prefsim_fatal("I/O error while writing trace file: ", path);
}

ParallelTrace
readTraceBinary(std::istream &is)
{
    const std::string image = readRest(is);
    ImageReader in(image);
    const auto magic = in.bytes(sizeof(kMagic));
    if (!magic || !std::equal(magic->begin(), magic->end(), kMagic))
        throw std::runtime_error("binary trace: bad magic");

    ParallelTrace trace;
    const auto num_procs = in.varint();
    if (num_procs > 32)
        throw std::runtime_error("binary trace: too many processors");
    trace.numLocks = static_cast<SyncId>(in.varint());
    trace.numBarriers = static_cast<SyncId>(in.varint());
    const auto name_len = in.varint();
    if (name_len > 4096)
        throw std::runtime_error("binary trace: oversized name");
    const auto name = in.bytes(name_len);
    if (!name)
        throw std::runtime_error("binary trace: truncated name");
    trace.name = *name;

    trace.procs.resize(num_procs);
    for (auto &proc : trace.procs) {
        const auto count = in.varint();
        // A record takes at least two bytes, so a count the image
        // cannot hold reserves no more than it could; the loop below
        // then reports the truncation.
        proc.reserve(std::min<std::uint64_t>(count, in.remaining() / 2));
        Addr prev = 0;
        for (std::uint64_t i = 0; i < count; ++i) {
            const int tag = in.byte();
            if (tag < 0)
                throw std::runtime_error("binary trace: truncated record");
            const auto kind = static_cast<RecordKind>(tag);
            switch (kind) {
              case RecordKind::Instr:
                proc.records().push_back(TraceRecord::instr(
                    static_cast<std::uint32_t>(in.varint())));
                break;
              case RecordKind::Read:
              case RecordKind::Write:
              case RecordKind::Prefetch:
              case RecordKind::PrefetchExcl: {
                const Addr addr =
                    prev + static_cast<Addr>(unzigzag(in.varint()));
                prev = addr;
                TraceRecord r;
                r.kind = kind;
                r.addr = addr;
                proc.records().push_back(r);
                break;
              }
              case RecordKind::LockAcquire:
              case RecordKind::LockRelease:
              case RecordKind::Barrier: {
                TraceRecord r;
                r.kind = kind;
                r.sync = static_cast<SyncId>(in.varint());
                proc.records().push_back(r);
                break;
              }
              default:
                throw std::runtime_error(
                    "binary trace: unknown record tag " +
                    std::to_string(tag));
            }
        }
    }
    return trace;
}

ParallelTrace
readTraceBinaryFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        prefsim_fatal("cannot open trace file for reading: ", path);
    return readTraceBinary(is);
}

ParallelTrace
readTraceAutoFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        prefsim_fatal("cannot open trace file for reading: ", path);
    char magic[4] = {};
    is.read(magic, sizeof(magic));
    is.seekg(0);
    if (std::equal(magic, magic + 4, kMagic))
        return readTraceBinary(is);
    return readTrace(is);
}

} // namespace prefsim
