/**
 * @file
 * acdse-serve: command-line prediction server front-end.
 *
 * Loads a model artifact (see serve/model_store.hh) and streams
 * predictions for CSV query batches read from a file or stdin. Each
 * input row is the 13 design-space parameters in Table 1 order:
 *
 *   width,ROB,IQ,LSQ,RF,RF rd,RF wr,bpred(K),BTB(K),branches,
 *   IL1(KB),DL1(KB),L2(KB)
 *
 * A header row and '#' comment lines are skipped. Output is CSV: the
 * 13 echoed parameters followed by one column per metric the artifact
 * carries. Rows are processed in batches (--batch) across the service
 * thread pool, so piping a large file through this binary exercises
 * the same hot path as bench_serve_throughput.
 *
 * Serving-front-end modes on top of that:
 *
 *  - --max-queue N routes batches through the lock-free ingest ring
 *    and the drainer thread (PredictionService::submit) instead of
 *    the synchronous predict() path; a full ring is retried, so the
 *    CLI never drops a row.
 *
 *  - --tenants name=model.acdse,... serves several models at once.
 *    Input rows gain a leading tenant-name column and output rows
 *    echo it plus the model version that served them. Tenant mode
 *    always uses the ingest ring.
 *
 *  - --hot-swap-watch polls the model file(s) between batches and
 *    republishes on any modification-time change: in-flight batches
 *    finish on the old version, later ones see the new one, and a
 *    half-written file is warned about and retried rather than fatal.
 *
 * Usage:
 *   acdse-serve --model trained.acdse [--input queries.csv]
 *               [--batch N] [--threads N] [--stats]
 *               [--max-queue N] [--tenants NAME=FILE,...]
 *               [--hot-swap-watch]
 *
 * Environment: ACDSE_SERVE_THREADS / ACDSE_SERVE_QUEUE are honoured
 * when --threads / --max-queue are not given.
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/binary_io.hh"
#include "base/csv.hh"
#include "base/logging.hh"
#include "base/parse.hh"
#include "obs/stats_export.hh"
#include "serve/prediction_service.hh"

using namespace acdse;

namespace
{

struct CliOptions
{
    std::string modelPath;
    std::string inputPath = "-";
    std::size_t batch = 256;
    std::size_t threads = 0;  // 0 = ServeOptions default
    std::size_t maxQueue = 0; // 0 = synchronous predict() path
    bool hotSwapWatch = false;
    bool printStats = false;
    std::string statsOut;       //!< acdse-stats-v1 dump path
    std::size_t statsEvery = 0; //!< periodic dump cadence in batches
    /** --tenants entries in declaration order: {name, model path}. */
    std::vector<std::pair<std::string, std::string>> tenants;
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --model FILE [--input FILE|-] [--batch N]\n"
        "          [--threads N] [--stats] [--stats-out FILE]\n"
        "          [--stats-every N] [--max-queue N]\n"
        "          [--tenants NAME=FILE,...] [--hot-swap-watch]\n"
        "\n"
        "Serve design-point predictions from a trained model artifact.\n"
        "Reads CSV rows of the 13 Table-1 parameters from --input\n"
        "(default stdin) and writes predictions as CSV to stdout.\n"
        "With --tenants, rows carry a leading tenant-name column and\n"
        "outputs echo the tenant and the serving model version.\n",
        argv0);
    std::exit(2);
}

std::vector<std::pair<std::string, std::string>>
parseTenantsSpec(const std::string &spec)
{
    std::vector<std::pair<std::string, std::string>> tenants;
    std::stringstream stream(spec);
    std::string entry;
    while (std::getline(stream, entry, ',')) {
        const std::size_t eq = entry.find('=');
        if (eq == std::string::npos || eq == 0 ||
            eq + 1 == entry.size())
            fatal("--tenants entry '", entry,
                  "' is not NAME=FILE");
        tenants.emplace_back(entry.substr(0, eq),
                             entry.substr(eq + 1));
    }
    if (tenants.empty())
        fatal("--tenants needs at least one NAME=FILE entry");
    return tenants;
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions options;
    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            fatal("missing value after ", argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--model")) {
            options.modelPath = value(i);
        } else if (!std::strcmp(argv[i], "--input")) {
            options.inputPath = value(i);
        } else if (!std::strcmp(argv[i], "--batch")) {
            options.batch = static_cast<std::size_t>(
                parseU64OrDie("--batch", value(i)));
        } else if (!std::strcmp(argv[i], "--threads")) {
            options.threads = static_cast<std::size_t>(
                parseU64OrDie("--threads", value(i)));
        } else if (!std::strcmp(argv[i], "--max-queue")) {
            options.maxQueue = static_cast<std::size_t>(
                parseU64OrDie("--max-queue", value(i)));
            if (options.maxQueue == 0)
                fatal("--max-queue must be positive");
        } else if (!std::strcmp(argv[i], "--tenants")) {
            options.tenants = parseTenantsSpec(value(i));
        } else if (!std::strcmp(argv[i], "--hot-swap-watch")) {
            options.hotSwapWatch = true;
        } else if (!std::strcmp(argv[i], "--stats")) {
            options.printStats = true;
        } else if (!std::strcmp(argv[i], "--stats-out")) {
            options.statsOut = value(i);
        } else if (!std::strcmp(argv[i], "--stats-every")) {
            options.statsEvery = static_cast<std::size_t>(
                parseU64OrDie("--stats-every", value(i)));
        } else if (!std::strcmp(argv[i], "--help") ||
                   !std::strcmp(argv[i], "-h")) {
            usage(argv[0]);
        } else {
            warn("unknown argument '", argv[i], "'");
            usage(argv[0]);
        }
    }
    if (options.modelPath.empty() && options.tenants.empty()) {
        warn("--model (or --tenants) is required");
        usage(argv[0]);
    }
    if (options.modelPath.empty())
        options.modelPath = options.tenants.front().second;
    if (options.batch == 0)
        fatal("--batch must be positive");
    if (options.statsEvery != 0 && options.statsOut.empty())
        fatal("--stats-every needs --stats-out");
    return options;
}

/**
 * Parse @p cells (the 13 Table-1 parameters, already split) into a
 * configuration; returns false when the row looks like a header row
 * (non-numeric first parameter cell on line 1). Illegal parameter
 * values are fatal with the offending line number, since silently
 * serving a prediction for a point outside the design space would be
 * worse than stopping.
 */
bool
parseParams(const std::vector<std::string> &cells, std::size_t offset,
            std::size_t lineNo, MicroarchConfig &out)
{
    if (cells.size() != offset + kNumParams) {
        fatal("line ", lineNo, ": expected ", offset + kNumParams,
              " comma-separated values, got ", cells.size());
    }
    std::array<int, kNumParams> values;
    for (std::size_t p = 0; p < kNumParams; ++p) {
        const auto parsed = parseI64(cells[offset + p]);
        if (!parsed) {
            // A non-numeric *first* cell on the first line is a header
            // row; a non-numeric cell anywhere else is corrupt data and
            // must not be skipped silently.
            if (lineNo == 1 && p == 0)
                return false;
            fatal("line ", lineNo, ": '", cells[offset + p],
                  "' is not an integer");
        }
        const ParamSpec &spec = paramSpec(static_cast<Param>(p));
        if (*parsed < INT_MIN || *parsed > INT_MAX ||
            !spec.contains(static_cast<int>(*parsed))) {
            fatal("line ", lineNo, ": ", *parsed,
                  " is not a legal value for ", spec.name);
        }
        values[p] = static_cast<int>(*parsed);
    }
    out = MicroarchConfig(values);
    return true;
}

void
writeHeader(const std::vector<Metric> &metrics, bool tenantMode)
{
    if (tenantMode)
        std::printf("tenant,");
    for (std::size_t p = 0; p < kNumParams; ++p)
        std::printf("%s%s", p ? "," : "",
                    paramName(static_cast<Param>(p)).c_str());
    if (tenantMode)
        std::printf(",version");
    for (Metric metric : metrics)
        std::printf(",%s", metricName(metric));
    std::printf("\n");
}

void
writeRow(const MicroarchConfig &query, const PredictionRow &row,
         const std::vector<Metric> &metrics, const char *tenant,
         std::uint64_t version)
{
    if (tenant)
        std::printf("%s,", tenant);
    const auto &raw = query.raw();
    for (std::size_t p = 0; p < kNumParams; ++p)
        std::printf("%s%d", p ? "," : "", raw[p]);
    if (tenant)
        std::printf(",%llu", static_cast<unsigned long long>(version));
    for (Metric metric : metrics)
        std::printf(",%.17g", row.get(metric));
    std::printf("\n");
}

/**
 * --hot-swap-watch bookkeeping for one tenant's model file: poll the
 * modification time between batches and republish on change. A file
 * that is missing or half-written when we look (SerializationError)
 * is warned about and retried on the next poll -- serving continues
 * on the previous version throughout.
 */
struct WatchedModel
{
    TenantId tenant = kDefaultTenant;
    std::string path;
    std::filesystem::file_time_type lastWrite{};

    void poll(PredictionService &service)
    {
        std::error_code ec;
        const auto stamp =
            std::filesystem::last_write_time(path, ec);
        if (ec || stamp == lastWrite)
            return;
        try {
            const std::uint64_t version =
                service.publish(tenant, loadArtifact(path));
            lastWrite = stamp;
            inform("hot-swapped '", path, "' as version ", version);
        } catch (const SerializationError &err) {
            // Likely caught mid-write; keep serving the old version
            // and try again next poll (lastWrite stays stale).
            warn("hot-swap of '", path, "' failed: ", err.what());
        }
    }
};

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions cli = parseArgs(argc, argv);
    const bool tenantMode = !cli.tenants.empty();
    // Tenant routing happens in the drainer, so tenant mode always
    // rides the ingest ring.
    const bool asyncMode = tenantMode || cli.maxQueue != 0;

    ServeOptions serve_options = ServeOptions::fromEnvironment();
    if (cli.threads)
        serve_options.threads = cli.threads;
    if (cli.maxQueue)
        serve_options.maxQueue = cli.maxQueue;
    // Periodic dumps come straight from the service (its private
    // registry); the final dump below also merges the global registry
    // for the pool/ metrics.
    serve_options.statsPath = cli.statsOut;
    serve_options.statsEveryBatches = cli.statsEvery;

    std::ifstream file;
    std::istream *in = &std::cin;
    if (cli.inputPath != "-") {
        file.open(cli.inputPath);
        if (!file)
            fatal("cannot open input '", cli.inputPath, "'");
        in = &file;
    }

    try {
        PredictionService service =
            PredictionService::fromFile(cli.modelPath, serve_options);

        std::vector<WatchedModel> watched;
        std::vector<std::string> tenantNames{"default"};
        if (tenantMode) {
            for (const auto &[name, path] : cli.tenants) {
                const TenantId tenant = service.registerTenant(name);
                service.publish(tenant, loadArtifact(path));
                if (tenant >= tenantNames.size())
                    tenantNames.resize(tenant + 1);
                tenantNames[tenant] = name;
                if (cli.hotSwapWatch)
                    watched.push_back({tenant, path, {}});
            }
        } else if (cli.hotSwapWatch) {
            watched.push_back({kDefaultTenant, cli.modelPath, {}});
        }
        // Seed the watchers' timestamps so the first poll is a no-op
        // for an unchanged file.
        for (WatchedModel &watch : watched) {
            std::error_code ec;
            watch.lastWrite =
                std::filesystem::last_write_time(watch.path, ec);
        }

        const std::vector<Metric> metrics = service.metrics();
        const ModelArtifact &artifact =
            service.model()->artifact;
        inform("serving '", cli.modelPath, "' (",
               artifact.tag().empty() ? "untagged" : artifact.tag(),
               "), ", metrics.size(), " metrics, pool of ",
               service.poolThreads() + 1, " threads",
               asyncMode ? ", async ingest ring of " : "",
               asyncMode ? std::to_string(service.queueCapacity())
                         : std::string());
        writeHeader(metrics, tenantMode);

        std::vector<MicroarchConfig> batch;
        std::vector<TenantId> batchTenants;
        batch.reserve(cli.batch);
        batchTenants.reserve(cli.batch);
        AsyncBatch async(cli.batch);

        std::string line;
        std::size_t line_no = 0;
        auto flush = [&] {
            if (batch.empty())
                return;
            if (asyncMode) {
                async.reset();
                for (std::size_t i = 0; i < batch.size(); ++i) {
                    // A full ring sheds; the CLI's contract is to
                    // serve every input row, so back off and retry
                    // until the drainer makes room.
                    while (service.submit(async, batchTenants[i],
                                          batch[i]) ==
                           SubmitStatus::QueueFull)
                        std::this_thread::yield();
                }
                async.wait();
                for (std::size_t i = 0; i < batch.size(); ++i) {
                    writeRow(batch[i], async.rows()[i], metrics,
                             tenantMode
                                 ? tenantNames[batchTenants[i]]
                                       .c_str()
                                 : nullptr,
                             async.versions()[i]);
                }
            } else {
                const auto rows = service.predict(batch);
                for (std::size_t i = 0; i < batch.size(); ++i)
                    writeRow(batch[i], rows[i], metrics, nullptr, 0);
            }
            batch.clear();
            batchTenants.clear();
            for (WatchedModel &watch : watched)
                watch.poll(service);
        };
        while (std::getline(*in, line)) {
            ++line_no;
            if (line.empty() || line[0] == '#')
                continue;
            const auto cells = splitCsvLine(line);
            TenantId tenant = kDefaultTenant;
            std::size_t offset = 0;
            if (tenantMode) {
                if (cells.empty())
                    continue;
                tenant = service.findTenant(cells[0]);
                if (tenant == ModelRegistry::kInvalidTenant) {
                    // Line 1 with an unknown first cell is the
                    // header row; anywhere else it is bad routing.
                    if (line_no == 1)
                        continue;
                    fatal("line ", line_no, ": unknown tenant '",
                          cells[0], "'");
                }
                offset = 1;
            }
            MicroarchConfig config;
            if (!parseParams(cells, offset, line_no, config))
                continue;
            batch.push_back(config);
            batchTenants.push_back(tenant);
            if (batch.size() == cli.batch)
                flush();
        }
        flush();

        if (cli.printStats) {
            const obs::Snapshot stats = service.statsSnapshot();
            const obs::StageSnapshot &batches =
                stats.stages.at("serve/batch");
            const std::uint64_t points = stats.counters.at("serve/points");
            const double totalMs = batches.totalMs();
            std::fprintf(
                stderr,
                "stats: %llu batches, %llu points, "
                "mean %.3f ms/batch (min %.3f, max %.3f), "
                "%.0f points/s\n",
                static_cast<unsigned long long>(batches.count),
                static_cast<unsigned long long>(points),
                batches.spans.mean() / 1e6,
                static_cast<double>(batches.spans.min) / 1e6,
                static_cast<double>(batches.spans.max) / 1e6,
                totalMs > 0.0 ? static_cast<double>(points) / (totalMs / 1e3)
                              : 0.0);
            if (asyncMode) {
                std::fprintf(
                    stderr,
                    "async: %llu accepted, %llu shed, p99 %.3f ms\n",
                    static_cast<unsigned long long>(
                        stats.counters.at("serve/requests")),
                    static_cast<unsigned long long>(
                        stats.counters.at("serve/shed")),
                    service.requestLatencyQuantileMs(0.99));
            }
        }
        if (!cli.statsOut.empty()) {
            obs::Snapshot snap = obs::Registry::global().snapshot();
            snap.merge(service.statsSnapshot());
            obs::writeStatsFile(cli.statsOut, snap);
        }
    } catch (const SerializationError &err) {
        fatal("cannot serve '", cli.modelPath, "': ", err.what());
    }
    return 0;
}
