/* A sampler, loaded into a program with LD_PRELOAD.  Two modes:
 *
 * CPU time (the default).  The profiling timer (ITIMER_PROF) is armed
 * to interrupt the program every millisecond of CPU time it uses, and
 * the handler records the interrupted instruction pointer.  Only that
 * leaf PC is kept: walking the frame pointers from a signal handler is
 * not safe on these builds.  The kernel may deliver fewer signals than
 * armed (its timer tick bounds the rate), so the process's CPU time
 * from getrusage() is written too, for the achieved rate.
 *
 * Allocations ($SAMPLER_ALLOC=N).  The library interposes malloc,
 * calloc, realloc and posix_memalign, forwards each call to glibc, and
 * on every Nth call takes a backtrace() of the caller.  A thread-local
 * flag keeps the unwinder's own allocations from sampling themselves.
 *
 * At exit the library writes /proc/self/maps ("map " lines) and the
 * samples ("pc " lines after a "cpu SECONDS" line, or "bt " lines of
 * return addresses, innermost first, after an "allocs CALLS N" line) to
 * the file named by
 * $SAMPLER_OUT.  scripts/profile.sh builds it, runs a command under it
 * and symbolizes the samples.  x86-64 Linux with glibc only. */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
static unsigned long pcs[MAX_SAMPLES];
static unsigned long n;

#define MAX_TRACES (1 << 16)
#define DEPTH 32
static void *traces[MAX_TRACES][DEPTH];
static int depths[MAX_TRACES];
static unsigned long traced;
static unsigned long every; /* 0: CPU-time mode */
static unsigned long calls;
static __thread int inside __attribute__((tls_model("initial-exec")));

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);

/* Count one allocation call and take a backtrace of every Nth. */
static void count(void) {
    if (!every || inside)
        return;
    if (__atomic_add_fetch(&calls, 1, __ATOMIC_RELAXED) % every)
        return;
    unsigned long i = __atomic_fetch_add(&traced, 1, __ATOMIC_RELAXED);
    if (i >= MAX_TRACES)
        return;
    inside = 1;
    depths[i] = backtrace(traces[i], DEPTH);
    inside = 0;
}

void *malloc(size_t size) {
    count();
    return __libc_malloc(size);
}

void *calloc(size_t nmemb, size_t size) {
    count();
    return __libc_calloc(nmemb, size);
}

void *realloc(void *p, size_t size) {
    count();
    return __libc_realloc(p, size);
}

int posix_memalign(void **out, size_t align, size_t size) {
    if (align % sizeof(void *) || align & (align - 1))
        return EINVAL;
    count();
    void *p = __libc_memalign(align, size);
    if (!p && size)
        return ENOMEM;
    *out = p;
    return 0;
}

static void on_prof(int sig, siginfo_t *info, void *uc) {
    (void)sig, (void)info;
    unsigned long i = __atomic_fetch_add(&n, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        pcs[i] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    unsetenv("LD_PRELOAD"); /* sample this process, not its children */
    const char *alloc = getenv("SAMPLER_ALLOC");
    if (alloc) {
        /* The first backtrace() loads the unwinder, which allocates. */
        void *warm[1];
        inside = 1;
        backtrace(warm, 1);
        inside = 0;
        every = strtoul(alloc, NULL, 10);
        return;
    }
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    inside = 1; /* what is written here is not the program's */
    unsigned long sampled = every;
    every = 0;
    const char *path = getenv("SAMPLER_OUT");
    FILE *out = path ? fopen(path, "w") : NULL;
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fprintf(out, "map %s", line);
    fclose(maps);
    if (sampled) {
        fprintf(out, "allocs %lu %lu\n", calls, sampled);
        unsigned long taken = traced < MAX_TRACES ? traced : MAX_TRACES;
        for (unsigned long i = 0; i < taken; i++) {
            fputs("bt", out);
            for (int d = 0; d < depths[i]; d++)
                fprintf(out, " %lx", (unsigned long)traces[i][d]);
            fputc('\n', out);
        }
    } else {
        struct rusage ru;
        getrusage(RUSAGE_SELF, &ru);
        fprintf(out, "cpu %.6f\n",
                ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
                    (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6);
    }
    unsigned long taken = n < MAX_SAMPLES ? n : MAX_SAMPLES;
    for (unsigned long i = 0; i < taken; i++)
        fprintf(out, "pc %lx\n", pcs[i]);
    fclose(out);
}
