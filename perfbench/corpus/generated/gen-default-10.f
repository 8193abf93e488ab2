program fuzz
  input integer :: n = 8
  integer :: i0, i1, i2, i3, i4, i5
  integer :: a0(0:n+2, 7)
  integer :: c0(n)
  do i0 = 0, n, 3
    do i1 = 3, 2, 2
      call sub0(n, i1, c0)
      call sub0(n, i1, c0)
      do i2 = i1, 1, -1
        a0(9, 7) = i0 * 2
      end do
      do i3 = 1, i0
        call sub0(n, i3, c0)
        call sub0(n, i3, c0)
        c0(8) = a0(i0+1, 2*i1-2) + 3
        call sub0(n, i1, c0)
        if (i1 == 6) then
          exit
        end if
      end do
      if (i0 == 2) then
        exit
      end if
    end do
    i4 = 2
    while (i4 < 8) do
      do i5 = 2, -5, -3
        c0(5) = a0(3, 1) + 0
        a0(i5+6, 2) = i0 + 5
        print 29
        c0(6) = -5
      end do
      a0(i0+1, 6) = 11
      if (i4 >= 6) then
        call sub0(n, i4, c0)
        c0(i4-8) = c0(2) + 2
        call sub0(n, 1, c0)
        call sub0(n, 1, c0)
      end if
      print i4
      i4 = i4 + 1
    end while
    print 37
    if (i0 == 6) then
      cycle
    end if
  end do
  print 73
end program
subroutine sub0(m, j, x)
  integer :: m, j, k
  integer :: x(m)
  do k = 1, m
    x(k) = k + j
    x(k) = x(k) + m
  end do
  x(j) = x(j) + 1
end subroutine
