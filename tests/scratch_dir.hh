/**
 * @file
 * Scratch directories for tests that write files, private to one
 * process and one test.
 *
 * ctest runs every gtest case in its own process, many at once under
 * `ctest -j`. A fixed name under the temp directory is therefore
 * shared by concurrent processes that create, read and delete it
 * under each other. freshDir() instead names each directory by the
 * process id and the running test:
 *
 *     <tmp>/acdse-test-<pid>/<Suite>.<Test>/<name>
 *
 * and the per-process root is removed when the process exits.
 */

#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace acdse::testscratch
{

/** This process's root directory; created on first use, removed at exit. */
inline const std::filesystem::path &
processRoot()
{
    struct Root
    {
        std::filesystem::path path =
            std::filesystem::temp_directory_path() /
            ("acdse-test-" + std::to_string(::getpid()));

        Root()
        {
            // A leftover of an earlier process that had the same pid.
            std::filesystem::remove_all(path);
            std::filesystem::create_directories(path);
        }

        ~Root()
        {
            std::error_code ignored;
            std::filesystem::remove_all(path, ignored);
        }
    };
    static const Root root;
    return root.path;
}

/**
 * An empty directory owned by this process and the running test
 * (`process` outside any test). Calling it again with the same name
 * from the same test empties the directory.
 */
inline std::filesystem::path
freshDir(const std::string &name)
{
    const ::testing::TestInfo *test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string owner =
        test ? std::string(test->test_suite_name()) + "." + test->name()
             : std::string("process");
    // Parameterised suites and tests carry '/' in their names.
    std::replace(owner.begin(), owner.end(), '/', '_');
    const std::filesystem::path dir = processRoot() / owner / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

} // namespace acdse::testscratch
