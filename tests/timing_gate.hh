/**
 * @file
 * Whether this build can judge a wall-clock gate. A timing assertion
 * means something only in an optimized build without sanitizer
 * instrumentation: Debug code and ASan/TSan shadow checks change
 * relative costs by integer factors, so those builds skip the gate
 * (and say why) instead of failing or passing it by accident.
 */

#ifndef PAPI_TESTS_TIMING_GATE_HH
#define PAPI_TESTS_TIMING_GATE_HH

namespace papi::test {

/** nullptr when timing gates apply, else why they are skipped. */
constexpr const char *
timingGateSkipReason()
{
#if !defined(NDEBUG)
    return "timing gates need an optimized (NDEBUG) build";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "timing gates do not apply under sanitizers";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    return "timing gates do not apply under sanitizers";
#else
    return nullptr;
#endif
#else
    return nullptr;
#endif
}

} // namespace papi::test

#endif // PAPI_TESTS_TIMING_GATE_HH
