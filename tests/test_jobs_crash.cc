/**
 * @file
 * Kill/resume fault-injection suite for the campaign job server,
 * driving real `acdse-jobs` worker processes as subprocesses.
 *
 * The contract under test: a campaign job run SIGKILL'd at *any*
 * point -- between jobs (ACDSE_JOBS_KILL_AFTER), mid-shard inside the
 * simulator loop (ACDSE_JOBS_KILL_IN), or via artificial journal
 * damage -- either resumes to artifacts byte-identical to an
 * uninterrupted run, or fails with a typed error. Never a silently
 * different result.
 *
 * Everything is pinned single-threaded with a tiny campaign (24
 * configurations x 3 programs, 1200-instruction traces) so one full
 * 9-job run takes tens of milliseconds; even the kill-at-every-
 * boundary chain stays well inside CI budget.
 *
 * The binary path arrives as the ACDSE_TOOL_JOBS compile definition
 * from tests/CMakeLists.txt. The suite name deliberately avoids the
 * `Jobs` substring: these tests fork multi-process trees and belong
 * in the regular test job, not the TSan `-R` regex.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/journal.hh"
#include "jobs/campaign_jobs.hh"
#include "json_reader.hh"
#include "scratch_dir.hh"

namespace acdse
{
namespace
{

namespace fs = std::filesystem;

struct RunResult
{
    int exitCode = -1;
    std::string output; //!< merged stdout+stderr
};

/** Run @p command under `sh -c` in @p dir, capturing exit + output. */
RunResult
run(const fs::path &dir, const std::string &command)
{
    const fs::path log = dir / "run.log";
    const std::string wrapped =
        "cd '" + dir.string() + "' && { " + command + " ; } > '" +
        log.string() + "' 2>&1";
    const int status = std::system(wrapped.c_str());
    RunResult result;
    result.exitCode =
        WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
    std::ifstream in(log);
    std::ostringstream text;
    text << in.rdbuf();
    result.output = text.str();
    return result;
}

using testscratch::freshDir;

std::string
readBytes(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/**
 * The pinned tiny-campaign invocation every test shares: 3 programs x
 * 24 configs = 72 cells in 3 shards of 30, two metrics -> 9 jobs
 * (3 simulate-shard, 4 train-program, 2 fit-responses).
 */
std::string
jobsCmd(const std::string &subcommand)
{
    return std::string("ACDSE_THREADS=1 ACDSE_CONFIGS=24 "
                       "ACDSE_TRACE_LEN=1200 ACDSE_WARMUP=200 ") +
           ACDSE_TOOL_JOBS + " " + subcommand;
}

std::string
runArgs(std::size_t workers)
{
    return "run --dir . --workers " + std::to_string(workers) +
           " --programs gzip,mcf --target vpr"
           " --train 12 --responses 8 --shard-cells 30";
}

/** Find the single file in @p dir matching prefix/suffix. */
fs::path
findFile(const fs::path &dir, const std::string &prefix,
         const std::string &suffix)
{
    std::vector<fs::path> found;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.starts_with(prefix) && name.ends_with(suffix))
            found.push_back(entry.path());
    }
    EXPECT_EQ(found.size(), 1u)
        << prefix << "*" << suffix << " in " << dir;
    return found.empty() ? fs::path() : found.front();
}

/**
 * The uninterrupted single-worker reference run, built once per test
 * process in that process's own scratch directory, so concurrent
 * ctest processes never share it. Every fault-injection test
 * byte-compares against this.
 */
const fs::path &
referenceDir()
{
    static const fs::path dir = [] {
        const fs::path d = freshDir("acdse_crash_reference");
        const RunResult result = run(d, jobsCmd(runArgs(1)));
        EXPECT_EQ(result.exitCode, 0) << result.output;
        return d;
    }();
    return dir;
}

/**
 * Assert the final artifacts in @p got are byte-identical to the
 * reference run: the merged campaign cache CSV, both per-metric
 * predictor ensembles and all four per-program model checkpoints.
 */
void
expectArtifactsMatchReference(const fs::path &got)
{
    const fs::path &ref = referenceDir();
    std::size_t cacheFiles = 0, predictors = 0, models = 0;
    for (const auto &entry : fs::directory_iterator(ref)) {
        const std::string name = entry.path().filename().string();
        if (name.starts_with("acdse_campaign_") &&
            name.ends_with(".csv")) {
            ++cacheFiles;
        } else if (name.find(".predictor_m") != std::string::npos) {
            ++predictors;
        } else if (name.find(".model_") != std::string::npos) {
            ++models;
        } else {
            continue;
        }
        ASSERT_TRUE(fs::exists(got / name)) << "missing " << name;
        EXPECT_TRUE(readBytes(got / name) == readBytes(entry.path()))
            << name << " differs from the uninterrupted run";
    }
    EXPECT_EQ(cacheFiles, 1u);
    EXPECT_EQ(predictors, 2u);
    EXPECT_EQ(models, 4u);
}

/** Parse `acdse-jobs status` output for @p dir. */
testjson::Value
statusOf(const fs::path &dir, int expectExit)
{
    const RunResult result = run(dir, jobsCmd("status --dir ."));
    EXPECT_EQ(result.exitCode, expectExit) << result.output;
    return testjson::parse(result.output);
}

// ---------------------------------------------------------------------

TEST(CrashResume, InProcessPathMatchesJobServer)
{
    // The job server and the pre-existing in-process path
    // (Campaign::ensureComputed + trainOffline/fitResponses) must
    // produce byte-identical caches and predictor ensembles.
    const fs::path inproc = freshDir("acdse_crash_inprocess");
    jobs::CampaignJobPlan plan;
    plan.programs = {"gzip", "mcf", "vpr"};
    plan.options.numConfigs = 24;
    plan.options.traceLength = 1200;
    plan.options.warmupInstructions = 200;
    plan.options.threads = 1;
    plan.options.quiet = true;
    plan.options.cacheDir = inproc.string();
    plan.shardCells = 30;
    for (std::size_t c = 0; c < 12; ++c)
        plan.trainIdx.push_back(c);
    for (std::size_t c = 12; c < 20; ++c)
        plan.responseIdx.push_back(c);
    plan.metrics = {0, 1};
    plan.newProgram = "vpr";

    jobs::CampaignJobRunner runner(plan);
    runner.runInProcess();

    const fs::path &ref = referenceDir();
    for (const auto &entry : fs::directory_iterator(ref)) {
        const std::string name = entry.path().filename().string();
        const bool cache = name.starts_with("acdse_campaign_") &&
                           name.ends_with(".csv");
        if (!cache && name.find(".predictor_m") == std::string::npos)
            continue; // in-process writes no shard/model checkpoints
        ASSERT_TRUE(fs::exists(inproc / name)) << "missing " << name;
        EXPECT_TRUE(readBytes(inproc / name) ==
                    readBytes(entry.path()))
            << name << " differs between job server and in-process";
    }
}

TEST(CrashResume, KillAtEveryJobBoundary)
{
    // Kill the worker after every single job: the run crosses every
    // shard/training boundary the plan has, one resume per boundary.
    const fs::path dir = freshDir("acdse_crash_boundary");
    const std::string kill = "ACDSE_JOBS_KILL_AFTER=0:1 ";
    RunResult result = run(dir, kill + jobsCmd(runArgs(1)));
    int sessions = 1;
    while (result.exitCode == 3 && sessions < 40) {
        ++sessions;
        result = run(dir, kill + jobsCmd("resume --dir . --workers 1"));
    }
    ASSERT_EQ(result.exitCode, 0) << result.output;
    // 9 jobs -> 9 killed sessions + 1 that finds the queue drained.
    EXPECT_EQ(sessions, 10) << "kill chain length changed";
    expectArtifactsMatchReference(dir);

    const testjson::Value status = statusOf(dir, 0);
    EXPECT_EQ(status.at("schema").asString(), "acdse-jobs-status-v1");
    EXPECT_EQ(status.at("jobs").at("done").asNumber(), 9.0);
    EXPECT_TRUE(status.at("drained").boolean);
    // Ten sessions = ten journal generations.
    EXPECT_EQ(status.at("generation").asNumber(), 10.0);
}

TEST(CrashResume, KillMidShard)
{
    // SIGKILL inside the simulation loop, 5 cells into shard 1: the
    // partially simulated shard has no checkpoint, so resume redoes
    // it from scratch and the artifacts still match bit for bit.
    const fs::path dir = freshDir("acdse_crash_midshard");
    RunResult result =
        run(dir, "ACDSE_JOBS_KILL_IN=sim1@5 " + jobsCmd(runArgs(1)));
    ASSERT_EQ(result.exitCode, 3) << result.output;

    const testjson::Value status = statusOf(dir, 0);
    EXPECT_EQ(status.at("jobs").at("running").asNumber(), 1.0)
        << "the killed job should still be recorded as running";
    bool sawAbandoned = false;
    for (const auto &job : status.at("states").array) {
        if (job.at("id").asString() == "sim1") {
            EXPECT_EQ(job.at("state").asString(), "running");
            sawAbandoned = true;
        }
    }
    EXPECT_TRUE(sawAbandoned);
    // The interrupted shard left no checkpoint: atomic rename means
    // the file appears complete or not at all.
    bool shard1Checkpoint = false;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().filename().string().ends_with(".shard1.csv"))
            shard1Checkpoint = true;
    }
    EXPECT_FALSE(shard1Checkpoint);

    result = run(dir, jobsCmd("resume --dir . --workers 1"));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    expectArtifactsMatchReference(dir);
}

TEST(CrashResume, MultiWorkerKillAndResume)
{
    // Satellite 1's worker matrix: with 1, 2 and 4 workers, kill
    // worker 0 after its first job, resume with the same worker
    // count, and require byte-identical artifacts every time.
    for (const std::size_t workers : {1u, 2u, 4u}) {
        const fs::path dir = freshDir(
            "acdse_crash_multi" + std::to_string(workers));
        RunResult result = run(
            dir, "ACDSE_JOBS_KILL_AFTER=0:1 " + jobsCmd(runArgs(workers)));
        if (workers == 1) {
            // Single worker: the kill is deterministic.
            ASSERT_EQ(result.exitCode, 3) << result.output;
        } else {
            // Worker 0 is all but certain to win a claim; tolerate
            // the race where siblings drain the queue first.
            ASSERT_TRUE(result.exitCode == 3 || result.exitCode == 0)
                << result.output;
        }
        if (result.exitCode == 3) {
            result = run(dir,
                         jobsCmd("resume --dir . --workers " +
                                 std::to_string(workers)));
            ASSERT_EQ(result.exitCode, 0)
                << workers << " workers: " << result.output;
        }
        expectArtifactsMatchReference(dir);
    }
}

TEST(CrashResume, FailedJobRetriesAndSucceeds)
{
    // A job that throws on its first attempt is retried inside the
    // same session and the run still completes with identical bytes.
    const fs::path dir = freshDir("acdse_crash_retry");
    const RunResult result =
        run(dir, "ACDSE_JOBS_FAIL_ONCE=sim0 " + jobsCmd(runArgs(1)));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    expectArtifactsMatchReference(dir);

    const testjson::Value status = statusOf(dir, 0);
    for (const auto &job : status.at("states").array) {
        const int expected = job.at("id").asString() == "sim0" ? 2 : 1;
        EXPECT_EQ(job.at("attempts").asNumber(), expected)
            << job.at("id").asString();
    }
}

TEST(CrashResume, RecordedJournalSurvivesCorruptionSweep)
{
    // Satellite 2, over a *real* recorded journal (the reference
    // run's): every truncation and a 3-bit-per-byte flip sweep must
    // decode to a verified prefix of the original records or throw
    // JournalError -- silent divergence is the one forbidden outcome.
    const fs::path journalFile =
        findFile(referenceDir(), "acdse_jobs_", ".journal");
    const std::string bytes = readBytes(journalFile);
    ASSERT_GT(bytes.size(), 500u) << "journal suspiciously small";
    const auto reference = Journal::decode(bytes).records;
    ASSERT_GE(reference.size(), 20u); // plan + 9 jobs + gen + 18 state

    const auto isPrefix =
        [&reference](
            const std::vector<std::vector<std::string>> &got) {
            if (got.size() > reference.size())
                return false;
            for (std::size_t i = 0; i < got.size(); ++i) {
                if (got[i] != reference[i])
                    return false;
            }
            return true;
        };

    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        const JournalReplay replay =
            Journal::decode(std::string_view(bytes).substr(0, cut));
        EXPECT_TRUE(isPrefix(replay.records)) << "truncation " << cut;
    }
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
        for (const unsigned bit : {0u, 3u, 7u}) {
            std::string flipped = bytes;
            flipped[pos] = static_cast<char>(
                static_cast<unsigned char>(flipped[pos]) ^ (1u << bit));
            try {
                EXPECT_TRUE(isPrefix(Journal::decode(flipped).records))
                    << "flip at byte " << pos << " bit " << bit;
            } catch (const JournalError &) {
                // Typed rejection: acceptable.
            }
        }
    }
}

TEST(CrashResume, TruncatedJournalResumesIdentically)
{
    // Chop whole records plus a partial line off a killed run's
    // journal -- the torn-write shape a crash can leave. Resume must
    // treat the lost suffix as never-happened work and still converge
    // to identical artifacts.
    const fs::path dir = freshDir("acdse_crash_truncate");
    RunResult result =
        run(dir, "ACDSE_JOBS_KILL_AFTER=0:4 " + jobsCmd(runArgs(1)));
    ASSERT_EQ(result.exitCode, 3) << result.output;

    const fs::path journalFile = findFile(dir, "acdse_jobs_", ".journal");
    std::string bytes = readBytes(journalFile);
    // Keep the plan, the 9 job records and the generation record (11
    // lines) plus 5 bytes of the next line to simulate the torn tail.
    std::size_t offset = 0;
    for (int line = 0; line < 11; ++line)
        offset = bytes.find('\n', offset) + 1;
    ASSERT_LT(offset + 5, bytes.size());
    {
        std::ofstream out(journalFile, // NOLINT(acdse-atomic-write)
                          std::ios::binary | std::ios::trunc);
        out << bytes.substr(0, offset + 5);
    }

    result = run(dir, jobsCmd("resume --dir . --workers 1"));
    ASSERT_EQ(result.exitCode, 0) << result.output;
    expectArtifactsMatchReference(dir);
}

TEST(CrashResume, CorruptedJournalIsATypedErrorNotAWrongResume)
{
    // Flip one interior bit of a killed run's journal: status and
    // resume must both fail with exit 1 (typed JournalError), not
    // carry on from damaged state.
    const fs::path dir = freshDir("acdse_crash_bitflip");
    RunResult result =
        run(dir, "ACDSE_JOBS_KILL_AFTER=0:4 " + jobsCmd(runArgs(1)));
    ASSERT_EQ(result.exitCode, 3) << result.output;

    const fs::path journalFile = findFile(dir, "acdse_jobs_", ".journal");
    std::string bytes = readBytes(journalFile);
    // A content byte inside the second record (the first job line).
    const std::size_t target = bytes.find('\n') + 4;
    ASSERT_LT(target, bytes.size());
    bytes[target] = static_cast<char>(
        static_cast<unsigned char>(bytes[target]) ^ 0x01u);
    {
        std::ofstream out(journalFile, // NOLINT(acdse-atomic-write)
                          std::ios::binary | std::ios::trunc);
        out << bytes;
    }

    result = run(dir, jobsCmd("status --dir ."));
    EXPECT_EQ(result.exitCode, 1) << result.output;
    EXPECT_NE(result.output.find("error"), std::string::npos);
    result = run(dir, jobsCmd("resume --dir . --workers 1"));
    EXPECT_EQ(result.exitCode, 1) << result.output;
}

} // namespace
} // namespace acdse
