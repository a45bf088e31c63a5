/**
 * @file
 * Statistics framework.
 *
 * Every model component exposes its observable behaviour (fault counts,
 * migrated bytes, transfer histograms, derived bandwidths...) as named
 * statistics registered with the simulation's StatRegistry.  The
 * registry renders the complete set as a human-readable table or as
 * CSV, which is what the bench runner consumes to regenerate the
 * paper's tables and figures.
 *
 * Components own their stats as plain members; the registry stores
 * non-owning pointers and therefore must not outlive the components.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace uvmsim::stats
{

/**
 * Render a stat value without precision loss: whole values print as
 * integers, fractional ones with max_digits10 significant digits so
 * they round-trip through text exactly.  Used by the text and CSV
 * dumps -- the default ostream precision of 6 significant digits
 * would corrupt large byte/tick counters.
 */
std::string renderValue(double v);

/** Abstract named statistic. */
class Stat
{
  public:
    Stat(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {}

    virtual ~Stat() = default;

    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;

    /** Fully qualified stat name, e.g. "gmmu.far_faults". */
    const std::string &name() const { return name_; }

    /** One-line human description. */
    const std::string &description() const { return desc_; }

    /** The stat's value reduced to a double (histograms report count). */
    virtual double value() const = 0;

    /** Reset to the state of a freshly constructed stat. */
    virtual void reset() = 0;

    /** Render the value for the text dump. */
    virtual std::string render() const;

  private:
    std::string name_;
    std::string desc_;
};

/** Monotonically increasing (but resettable) integer counter. */
class Counter : public Stat
{
  public:
    using Stat::Stat;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }

    /** Raw counter value. */
    std::uint64_t count() const { return value_; }

    double value() const override { return static_cast<double>(value_); }
    void reset() override { value_ = 0; }
    std::string render() const override;

  private:
    std::uint64_t value_ = 0;
};

/**
 * A settable floating-point scalar (e.g. a configured ratio).
 *
 * reset() restores the last set() value rather than zeroing: scalars
 * typically hold configured quantities, and a StatRegistry::resetAll()
 * between kernels or epochs must not silently wipe them.  clear()
 * discards the configured value too.
 */
class Scalar : public Stat
{
  public:
    using Stat::Stat;

    void set(double v) { value_ = configured_ = v; }

    /** Forget the configured value entirely (back to 0). */
    void clear() { value_ = configured_ = 0.0; }

    double value() const override { return value_; }
    void reset() override { value_ = configured_; }

  private:
    double value_ = 0.0;
    double configured_ = 0.0;
};

/** Tracks the maximum of all samples offered to it. */
class Maximum : public Stat
{
  public:
    using Stat::Stat;

    void
    sample(double v)
    {
        if (!seen_ || v > value_) {
            value_ = v;
            seen_ = true;
        }
    }

    double value() const override { return seen_ ? value_ : 0.0; }
    void reset() override { value_ = 0.0; seen_ = false; }

  private:
    double value_ = 0.0;
    bool seen_ = false;
};

/** Running average of samples. */
class Average : public Stat
{
  public:
    using Stat::Stat;

    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
    }

    /** Number of samples folded in so far. */
    std::uint64_t samples() const { return count_; }

    double
    value() const override
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    void reset() override { sum_ = 0.0; count_ = 0; }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/** Fixed-width linear histogram with underflow/overflow buckets. */
class Histogram : public Stat
{
  public:
    /**
     * @param name        Stat name.
     * @param desc        Description.
     * @param bucket_lo   Lower bound of the first in-range bucket.
     * @param bucket_width Width of each bucket (> 0).
     * @param num_buckets Number of in-range buckets (> 0).
     */
    Histogram(std::string name, std::string desc, double bucket_lo,
              double bucket_width, std::size_t num_buckets);

    /** Fold one sample into the histogram. */
    void sample(double v);

    /** Total number of samples. */
    std::uint64_t samples() const { return samples_; }

    /** Mean of all samples. */
    double mean() const { return samples_ ? sum_ / samples_ : 0.0; }

    /** Smallest sample seen (0 if none). */
    double minSample() const { return samples_ ? min_ : 0.0; }

    /** Largest sample seen (0 if none). */
    double maxSample() const { return samples_ ? max_ : 0.0; }

    /** Count in in-range bucket i. */
    std::uint64_t bucketCount(std::size_t i) const { return buckets_.at(i); }

    /** Count of samples below the first bucket. */
    std::uint64_t underflows() const { return underflow_; }

    /**
     * Count of samples strictly above the end of the last bucket.
     * The range is inclusive at the top: a sample exactly equal to
     * lo + width * num_buckets lands in the last bucket, so e.g. a
     * maximum-size transfer is counted in range, not as overflow.
     */
    std::uint64_t overflows() const { return overflow_; }

    /** Number of in-range buckets. */
    std::size_t numBuckets() const { return buckets_.size(); }

    double value() const override { return static_cast<double>(samples_); }
    void reset() override;
    std::string render() const override;

  private:
    double lo_;
    double width_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t samples_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** A derived statistic computed on demand from other state. */
class Formula : public Stat
{
  public:
    Formula(std::string name, std::string desc, std::function<double()> fn)
        : Stat(std::move(name), std::move(desc)), fn_(std::move(fn))
    {}

    double value() const override { return fn_ ? fn_() : 0.0; }
    void reset() override {}

  private:
    std::function<double()> fn_;
};

/**
 * Non-owning registry of all stats in one simulation.
 *
 * Names must be unique; duplicate registration panics since it always
 * indicates a wiring bug.
 */
class StatRegistry
{
  public:
    /** Register a stat; the registry does not take ownership. */
    void add(Stat *stat);

    /** Remove a stat (used by components with shorter lifetimes). */
    void remove(const std::string &name);

    /** Find a stat by name; nullptr if absent. */
    Stat *find(const std::string &name) const;

    /** Find a stat by name; panics if absent (for harness code). */
    Stat &at(const std::string &name) const;

    /** All stats sorted by name. */
    std::vector<Stat *> all() const;

    /** Reset every registered stat. */
    void resetAll();

    /** Human-readable aligned dump, sorted by name. */
    void dump(std::ostream &os) const;

    /** Machine-readable CSV dump: name,value. */
    void dumpCsv(std::ostream &os) const;

    /** Number of registered stats. */
    std::size_t size() const { return stats_.size(); }

  private:
    std::map<std::string, Stat *> stats_;
};

} // namespace uvmsim::stats
