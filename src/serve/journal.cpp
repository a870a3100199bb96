#include "serve/journal.hpp"

#include <fstream>
#include <stdexcept>
#include <system_error>

#include <cstdio>
#include <filesystem>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define COBRA_SERVE_HAVE_FSYNC 1
#endif


namespace fs = std::filesystem;

namespace cobra::serve {

Journal::Journal(std::string path) : path_(std::move(path))
{
    open();
}

Journal::~Journal()
{
    if (f_ != nullptr)
        std::fclose(f_);
}

void
Journal::open()
{
    f_ = std::fopen(path_.c_str(), "ab");
    if (f_ == nullptr)
        throw std::runtime_error("cannot open journal " + path_);
}

void
Journal::append(const std::string& line)
{
    std::lock_guard<std::mutex> lk(m_);
    if (std::fwrite(line.data(), 1, line.size(), f_) != line.size() ||
        std::fputc('\n', f_) == EOF || std::fflush(f_) != 0)
        throw std::runtime_error("journal append failed: " + path_);
#if COBRA_SERVE_HAVE_FSYNC
    // Durability, not just ordering: a recorded point must survive a
    // power cut, or recovery could double-run it.
    ::fsync(::fileno(f_));
#endif
}

void
Journal::checkpoint(const std::vector<std::string>& lines)
{
    std::lock_guard<std::mutex> lk(m_);
    std::fclose(f_);
    f_ = nullptr;

    const std::string tmp = path_ + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            throw std::runtime_error("cannot write " + tmp);
        for (const std::string& l : lines)
            os << l << '\n';
        os.flush();
        if (!os)
            throw std::runtime_error("write failed: " + tmp);
    }
    std::error_code ec;
    fs::rename(tmp, path_, ec);
    if (ec) {
        throw std::runtime_error("journal checkpoint rename: " +
                                 ec.message());
    }
    open();
}

std::string
Journal::acceptLine(const std::string& req_id, const std::string& client,
                    int priority, std::size_t points)
{
    JsonWriter w;
    w.object(JsonWriter::Inline).field("ev", "accept").field("id", req_id);
    w.field("client", client).field("priority", priority);
    return w.field("points", points).end().str();
}

std::string
Journal::pointLine(const std::string& req_id, std::size_t idx,
                   const std::string& status,
                   const std::string& error_class,
                   const std::string& error, unsigned attempts,
                   const std::string& fragment)
{
    // The fragment (the point's rendered result-document entry) is
    // itself JSON; it rides inside the record as an escaped string so
    // the journal stays strictly line-oriented.
    JsonWriter w;
    w.object(JsonWriter::Inline).field("ev", "point").field("id", req_id);
    w.field("idx", idx).field("status", status);
    w.field("error_class", error_class).field("error", error);
    w.field("attempts", attempts).field("fragment", fragment);
    return w.end().str();
}

std::string
Journal::doneLine(const std::string& req_id, const std::string& status)
{
    JsonWriter w;
    w.object(JsonWriter::Inline).field("ev", "done").field("id", req_id);
    return w.field("status", status).end().str();
}

std::size_t
Journal::replay(const std::string& path,
                const std::function<void(const Json&)>& cb)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return 0;
    std::size_t n = 0;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        Json rec;
        try {
            rec = Json::parse(line);
        } catch (const JsonError&) {
            break; // Torn tail: the crash cut this record short.
        }
        if (!rec.isObject() || rec.find("ev") == nullptr)
            break;
        cb(rec);
        ++n;
    }
    return n;
}

} // namespace cobra::serve
