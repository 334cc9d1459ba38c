/* A SIGPROF sampler, loaded into a program with LD_PRELOAD.
 *
 * Every millisecond of CPU time the program uses (ITIMER_PROF) the
 * kernel interrupts it, and the handler records the interrupted
 * instruction pointer.  Only that leaf PC is kept: walking the frame
 * pointers from a signal handler is not safe on these builds.  At exit
 * the library writes /proc/self/maps ("map " lines) and the samples
 * ("pc " lines) to the file named by $SAMPLER_OUT.  scripts/profile.sh
 * builds it, runs a command under it and symbolizes the samples.
 * x86-64 Linux only. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
static unsigned long pcs[MAX_SAMPLES];
static unsigned long n;

static void on_prof(int sig, siginfo_t *info, void *uc) {
    (void)sig, (void)info;
    unsigned long i = __atomic_fetch_add(&n, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        pcs[i] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    unsetenv("LD_PRELOAD"); /* sample this process, not its children */
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
    const char *path = getenv("SAMPLER_OUT");
    FILE *out = path ? fopen(path, "w") : NULL;
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fprintf(out, "map %s", line);
    fclose(maps);
    unsigned long taken = n < MAX_SAMPLES ? n : MAX_SAMPLES;
    for (unsigned long i = 0; i < taken; i++)
        fprintf(out, "pc %lx\n", pcs[i]);
    fclose(out);
}
